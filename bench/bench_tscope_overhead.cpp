// TSCOPE — host wall-clock cost of the probes meant to be left on.
//
// The tracer (scope), the race detector (analyze) and the wait-for graph
// (moviola) charge nothing in simulated time (tests prove observed runs are
// event-identical to bare runs), so the only price of observing is host
// time — and that price has two distinct parts since the charge() fast
// path landed (DESIGN.md §4d):
//
//   * attaching any probe forfeits the switch-free fast path (observed
//     runs ride the always-yield slow path, whose interleaving the hooks
//     can observe), and
//   * the hooks themselves: the calls, the tracer's event log and series,
//     the detector's vector clocks and shadow state, the wait-for edges.
//
// So the bench runs the FIG5 Gauss workload bare (fast path on), bare with
// the fast path disabled, with each probe alone and with all three
// together, and reports each probe's hook cost against the *slow-path*
// bare run (apples to apples) with the fast-path forfeiture broken out
// separately.  The configurations are interleaved within each repetition.
// The Chrome-trace export is timed on its own, since exporting happens
// once at the end rather than inside the run.
//
// The tracer's footprint is reported beside its cost: the bytes its log
// retains for the traced run (log_bytes), per span and per time-bin cell.
//
// Output: a human-readable table plus one JSON line for scraping.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "apps/gauss.hpp"
#include "bench_common.hpp"
#include "moviola/wait_graph.hpp"
#include "scope/scope.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"
#ifdef BFLY_HAVE_ANALYZE
#include "analyze/analyze.hpp"
#endif

namespace {

enum Probes : unsigned { kTracer = 1, kAnalyzer = 2, kDetector = 4 };

struct Config {
  const char* name;  // also the JSON key prefix
  unsigned probes;
  bool fastpath;
  double best = 1e100;
};

}  // namespace

int main() {
  using namespace bfly;
  using bench::host_seconds_since;
  const std::uint32_t n = bench::fast_mode() ? 48 : 96;
  const std::uint32_t procs = 8;
  const int reps = bench::fast_mode() ? 3 : 5;
  bench::header("TSCOPE", "host wall-clock overhead of the probes",
                "observing charges zero simulated time; the probes cost "
                "host time only");
  std::printf("matrix N=%u, 8-node Butterfly-I, US Gauss, best of %d runs\n\n",
              n, reps);

  apps::GaussConfig cfg;
  cfg.n = n;
  cfg.processors = procs;

  Config configs[] = {
      {"bare", 0, true},
      {"bare_slowpath", 0, false},
      {"tracer", kTracer, true},
#ifdef BFLY_HAVE_ANALYZE
      {"analyzer", kAnalyzer, true},
#endif
      {"detector", kDetector, true},
      {"all_probes", kTracer | kAnalyzer | kDetector, true},
  };
  Config& bare = configs[0];
  Config& slow = configs[1];
  Config& all = configs[std::size(configs) - 1];

  double export_best = 1e100;
  sim::Time bare_elapsed = 0;
  bool uncharged = true;
  std::uint64_t spans = 0;
  std::uint64_t refs = 0;
  std::size_t trace_bytes = 0;
  scope::Tracer::LogBytes log;
  for (int i = 0; i < reps; ++i) {
    for (Config& c : configs) {
      sim::MachineConfig mc = sim::butterfly1(8);
      mc.host_fastpath = c.fastpath;
      sim::Machine m(mc);
      std::optional<scope::Tracer> tracer;
      if (c.probes & kTracer) tracer.emplace(m);
#ifdef BFLY_HAVE_ANALYZE
      std::optional<analyze::Analyzer> analyzer;
      if (c.probes & kAnalyzer) analyzer.emplace(m);
#endif
      std::optional<moviola::Detector> detector;
      if (c.probes & kDetector) detector.emplace(m);
      const auto t0 = std::chrono::steady_clock::now();
      const apps::GaussResult r = apps::gauss_us(m, cfg);
      c.best = std::min(c.best, host_seconds_since(t0));
      // Unchargedness shows up here for free: the simulated clocks agree.
      if (&c == &bare) bare_elapsed = r.elapsed;
      uncharged = uncharged && r.elapsed == bare_elapsed;
      if (c.probes == kTracer) {
        spans = tracer->spans_begun();
        refs = tracer->references_seen();
        log = tracer->log_bytes();
        const auto t1 = std::chrono::steady_clock::now();
        const std::string trace = tracer->chrome_trace();
        export_best = std::min(export_best, host_seconds_since(t1));
        trace_bytes = trace.size();
      }
    }
  }

  // Hook cost rides the slow path; the fast-path forfeit is the bare pair.
  auto vs_slow = [&](const Config& c) { return c.best / slow.best - 1.0; };
  const double forfeit = slow.best / bare.best - 1.0;
  const double total = all.best / bare.best - 1.0;
  std::printf("%-14s %10s %12s\n", "run", "host(s)", "vs slowpath");
  for (const Config& c : configs) {
    std::printf("%-14s %10.4f", c.name, c.best);
    if (&c == &slow) {
      std::printf(" %12s\n", "-");
    } else {
      std::printf(" %11.1f%%\n", vs_slow(c) * 100.0);
    }
  }
  std::printf("\n%12s %10s %10s %9s\n", "all vs bare", "export(s)",
              "trace(MB)", "uncharged");
  std::printf("%11.1f%% %10.3f %10.2f %9s\n", total * 100.0, export_best,
              static_cast<double>(trace_bytes) / (1024.0 * 1024.0),
              uncharged ? "yes" : "NO");
  // The tracer's retained log: span events, and the cells of the closed
  // time bins.  A span's bytes are its begin and end records (and a share
  // of the instants).
  auto per = [](std::size_t bytes, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(n);
  };
  const double per_span = per(log.spans, spans);
  const double per_cell = per(log.bins, log.cells);
  std::printf("\n%12s %10s %10s\n", "log(KB)", "B/span", "B/cell");
  std::printf("%12.1f %10.2f %10.2f\n",
              static_cast<double>(log.total()) / 1024.0, per_span, per_cell);

  sim::json::Writer jw;
  jw.begin_object()
      .kv("bench", "tscope_overhead")
      .kv("n", n)
      .kv("procs", procs);
  for (const Config& c : configs)
    jw.kv(std::string(c.name) + "_host_s", c.best);
  for (const Config& c : configs)
    if (c.probes != 0)
      jw.kv(std::string(c.name) + "_overhead_pct", vs_slow(c) * 100.0);
  jw.kv("total_overhead_pct", total * 100.0)
      .kv("fastpath_forfeit_pct", forfeit * 100.0)
      .kv("export_host_s", export_best)
      .kv("trace_bytes", static_cast<std::uint64_t>(trace_bytes))
      .kv("log_bytes", static_cast<std::uint64_t>(log.total()))
      .kv("log_bytes_per_span", per_span)
      .kv("log_bytes_per_cell", per_cell)
      .kv("spans", spans)
      .kv("references", refs)
      .kv("sim_elapsed_ns", bare_elapsed)
      .kv("uncharged", uncharged)
      .end_object();
  std::printf("%s\n", jw.str().c_str());

  std::printf(
      "\nshape check: uncharged must say yes (identical simulated clocks);\n"
      "each probe's row is its own cost vs the slow-path run it rides and\n"
      "should stay well under 2x; \"all vs bare\" additionally pays the\n"
      "forfeited charge fast path (DESIGN.md 4d) and may be much larger.\n");
  return uncharged ? 0 : 1;
}
