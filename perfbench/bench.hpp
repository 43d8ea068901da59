// Shared pieces of the repository benchmark: named metrics with units,
// counted correctness checks, the input generators' seed mixing, the span
// log of the traced run, and small statistics helpers.
//
// Two clocks never mix here.  Host values (what the simulator costs to run)
// come from std::chrono::steady_clock; simulated values (what the modelled
// Butterfly would take) come from sim::Machine::now() and the layers'
// counters.  Every metric records which clock it uses through its unit:
// host times are "s"/"ns", simulated times "sim_s"/"sim_ms"/"sim_us".
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double host_s(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double since(Clock::time_point t0) { return host_s(t0, Clock::now()); }

/// CPU time of the calling thread, in seconds.  Fibers all run on the one
/// host thread, so this is the simulator's own CPU time: unlike wall time
/// it excludes stretches where the thread was descheduled.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host time of one chunk of the fixed calibration job (calibrate.cpp).
double calibration_chunk_s();

inline double sim_seconds(bfly::sim::Time t) {
  return static_cast<double>(t) / bfly::sim::kSecond;
}
inline double sim_ms(bfly::sim::Time t) {
  return static_cast<double>(t) / bfly::sim::kMillisecond;
}

/// splitmix64: derives independent, reproducible generator seeds from the
/// one workload seed, so each input stream (Gauss system, each worker's
/// arrival schedule) is a pure function of (--seed, stream tag).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of simulated times, in simulated milliseconds.
inline double quantile_ms(std::vector<bfly::sim::Time> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return sim_ms(v[i]);
}

/// Metrics in emission order.  A name may be set once: the output is a
/// JSON object, and a repeated key would silently shadow the first value.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!names_.insert(name).second)
      throw std::logic_error("metric emitted twice: " + name);
    rows_.push_back({name, value, unit});
  }
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::set<std::string> names_;
  std::vector<Row> rows_;
};

/// A JSON object built field by field.  Keys must be unique (the call that
/// would repeat one throws; sim::json::Writer does not check, which is how
/// BENCH_partition.json came to carry duplicated keys), numbers keep all
/// their digits, and nested values are added already serialized.
class JsonObj {
 public:
  JsonObj& num(const std::string& key, double v) {
    char buf[40];
    if (!std::isfinite(v)) return raw(key, "null");
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObj& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObj& num(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObj& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObj& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObj& raw(const std::string& key, const std::string& json) {
    if (!keys_.insert(key).second)
      throw std::logic_error("duplicate JSON key: " + key);
    body_ += body_.empty() ? "" : ",";
    body_ += quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::set<std::string> keys_;
  std::string body_;
};

/// Correctness checks of one run.  Every check counts as one attempt; a
/// failed one is also printed to stderr with its description.
class Checks {
 public:
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  /// Requests served by the workload count as attempts too (fail_frac is
  /// failed checks plus failed requests over everything attempted).
  void requests(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Named counter deltas carried by a span.
using Deltas = std::vector<std::pair<std::string, std::int64_t>>;

/// In-memory span log of the traced run.  Each span wraps one call into a
/// layer's public function from the benchmark's own code and carries host
/// and simulated begin/end times plus the deltas of that layer's public
/// counters over the call.  Nothing is written until the run ends.
class SpanLog {
 public:
  struct Span {
    const char* layer;
    const char* name;
    double host_begin;  // host seconds since the log was created
    double host_end;
    bfly::sim::Time sim_begin;
    bfly::sim::Time sim_end;
    Deltas deltas;
  };

  SpanLog() : t0_(Clock::now()) {}

  /// Opens a span and returns its handle.
  std::size_t begin(const char* layer, const char* name, bfly::sim::Time now) {
    spans_.push_back({layer, name, since(t0_), 0.0, now, now, {}});
    return spans_.size();
  }
  void end(std::size_t handle, bfly::sim::Time now, Deltas deltas = {}) {
    Span& s = spans_[handle - 1];
    s.host_end = since(t0_);
    s.sim_end = now;
    s.deltas = std::move(deltas);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span over one public call; a null log records nothing, so the
/// untraced run pays a single pointer test per call site.
class SpanScope {
 public:
  using Snapshot = std::function<Deltas()>;
  SpanScope(SpanLog* log, const char* layer, const char* name,
            const bfly::sim::Machine& m, Snapshot counters = {})
      : log_(log), m_(m) {
    if (log_ == nullptr) return;
    counters_ = std::move(counters);
    if (counters_) before_ = counters_();
    handle_ = log_->begin(layer, name, m_.now());
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    Deltas d;
    if (counters_) {
      d = counters_();
      for (std::size_t i = 0; i < d.size() && i < before_.size(); ++i)
        d[i].second -= before_[i].second;
    }
    log_->end(handle_, m_.now(), std::move(d));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  const bfly::sim::Machine& m_;
  Snapshot counters_;
  Deltas before_;
  std::size_t handle_ = 0;
};

}  // namespace perfbench
