// Shared helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation, printing the same rows/series the paper reports.  Benches run
// entirely in simulated time, so "seconds" below are Butterfly seconds, not
// host seconds.  Set BFLY_FAST=1 in the environment to shrink problem sizes
// for smoke runs (CI); the default sizes match the paper's scale.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scope/trace_check.hpp"
#include "sim/time.hpp"

namespace bfly::bench {

inline bool fast_mode() {
  const char* v = std::getenv("BFLY_FAST");
  return v != nullptr && v[0] != '0';
}

inline double seconds(sim::Time t) {
  return static_cast<double>(t) / sim::kSecond;
}

/// Host wall-clock seconds since t0 (for the benches that time the host).
inline double host_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Quantile q of `v` in simulated milliseconds (sorts `v` in place).
inline double pct_ms(std::vector<sim::Time>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return seconds(v[i]) * 1e3;
}

inline void header(const char* id, const char* title, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper: %s\n", claim);
  std::printf("==============================================================\n");
}

/// The one gate/row/file path of every self-checking bench.  gate() records
/// a failed shape check on stderr; row() collects one JSON row; finish()
/// writes the rows to `file` in the working directory as
/// {"bench":...,"fast":...,"rows":[...]}, reads the file back through
/// scope::json_parse (which rejects repeated keys), prints the shape note
/// and the verdict, and returns the process exit status.  A Report built
/// without a file only gates.
class Report {
 public:
  Report() = default;
  Report(std::string bench, std::string file)
      : bench_(std::move(bench)), file_(std::move(file)) {}

  void gate(bool ok, const char* what) {
    if (ok) return;
    ++violations_;
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
  }

  void row(std::string json) { rows_.push_back(std::move(json)); }

  int finish(const char* shape_note) {
    if (!file_.empty()) write_rows();
    std::printf("%s", shape_note);
    if (violations_ > 0) {
      std::fprintf(stderr, "\n%d gate(s) FAILED\n", violations_);
      return 1;
    }
    std::printf("all gates passed\n");
    return 0;
  }

 private:
  void write_rows() {
    std::string text = "{\"bench\":\"" + bench_ + "\",\"fast\":" +
                       (fast_mode() ? "true" : "false") + ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      text += (i > 0 ? "," : "") + rows_[i];
    text += "]}\n";
    {
      std::ofstream out(file_, std::ios::trunc);
      out << text;
      if (!out) {
        std::fprintf(stderr, "could not write %s\n", file_.c_str());
        ++violations_;
        return;
      }
    }
    std::printf("\nwrote %s (%zu rows)\n", file_.c_str(), rows_.size());
    std::ifstream in(file_);
    std::stringstream back;
    back << in.rdbuf();
    scope::JsonValue doc;
    std::string err;
    if (!scope::json_parse(back.str(), &doc, &err)) {
      std::fprintf(stderr, "GATE FAILED: %s does not parse: %s\n",
                   file_.c_str(), err.c_str());
      ++violations_;
      return;
    }
    const scope::JsonValue* rows = doc.find("rows");
    gate(rows != nullptr && rows->arr.size() == rows_.size(),
         "the rows file must read back every row written");
  }

  std::string bench_;
  std::string file_;
  std::vector<std::string> rows_;
  int violations_ = 0;
};

}  // namespace bfly::bench
