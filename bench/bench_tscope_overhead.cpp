// TSCOPE — host wall-clock cost of scope tracing.
//
// The Tracer charges nothing in simulated time (tests/scope proves traced
// runs are event-identical to bare runs), so the only price of tracing is
// host time — but that price has two distinct parts since the charge()
// fast path landed (DESIGN.md §4d):
//
//   * attaching any probe forfeits the switch-free fast path (traced
//     runs ride the always-yield slow path, whose interleaving the hooks
//     can observe), and
//   * the hooks themselves: the calls, the event-log appends, the
//     occupancy bins.
//
// So the bench runs the FIG5 Gauss workload three ways — bare (fast path
// on), bare with the fast path disabled, and traced — and reports the
// hook cost against the *slow-path* bare run (apples to apples) with the
// fast-path forfeiture broken out separately.  The Chrome-trace export is
// timed on its own, since exporting happens once at the end rather than
// inside the run.
//
// Output: a human-readable table plus one JSON line for scraping.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apps/gauss.hpp"
#include "bench_common.hpp"
#include "scope/scope.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"

int main() {
  using namespace bfly;
  using bench::host_seconds_since;
  const std::uint32_t n = bench::fast_mode() ? 48 : 96;
  const std::uint32_t procs = 8;
  bench::header("TSCOPE", "host wall-clock overhead of scope tracing",
                "tracing charges zero simulated time; the event log costs "
                "host time only");
  std::printf("matrix N=%u, 8-node Butterfly-I, US Gauss, best of %d runs\n\n",
              n, bench::fast_mode() ? 3 : 5);

  apps::GaussConfig cfg;
  cfg.n = n;
  cfg.processors = procs;

  sim::MachineConfig slow_cfg = sim::butterfly1(8);
  slow_cfg.host_fastpath = false;

  const int reps = bench::fast_mode() ? 3 : 5;
  double bare_best = 1e100;
  double slow_best = 1e100;
  double traced_best = 1e100;
  double export_best = 1e100;
  sim::Time bare_elapsed = 0;
  sim::Time traced_elapsed = 0;
  std::uint64_t spans = 0;
  std::uint64_t refs = 0;
  std::size_t trace_bytes = 0;
  for (int i = 0; i < reps; ++i) {
    {
      sim::Machine m(sim::butterfly1(8));
      const auto t0 = std::chrono::steady_clock::now();
      const apps::GaussResult r = apps::gauss_us(m, cfg);
      bare_best = std::min(bare_best, host_seconds_since(t0));
      bare_elapsed = r.elapsed;
    }
    {
      sim::Machine m(slow_cfg);
      const auto t0 = std::chrono::steady_clock::now();
      (void)apps::gauss_us(m, cfg);
      slow_best = std::min(slow_best, host_seconds_since(t0));
    }
    {
      sim::Machine m(sim::butterfly1(8));
      scope::Tracer tracer(m);
      const auto t0 = std::chrono::steady_clock::now();
      const apps::GaussResult r = apps::gauss_us(m, cfg);
      traced_best = std::min(traced_best, host_seconds_since(t0));
      traced_elapsed = r.elapsed;
      spans = tracer.spans_begun();
      refs = tracer.references_seen();
      const auto t1 = std::chrono::steady_clock::now();
      const std::string trace = tracer.chrome_trace();
      export_best = std::min(export_best, host_seconds_since(t1));
      trace_bytes = trace.size();
    }
  }

  // Unchargedness shows up here for free: the simulated clocks must agree.
  const bool uncharged = bare_elapsed == traced_elapsed;
  const double hook_overhead = traced_best / slow_best - 1.0;
  const double total_overhead = traced_best / bare_best - 1.0;
  const double forfeit = slow_best / bare_best - 1.0;
  std::printf("%10s %10s %10s %9s %9s %10s %10s %9s\n", "bare(s)",
              "slowpath(s)", "traced(s)", "hooks", "total", "export(s)",
              "trace(MB)", "uncharged");
  std::printf("%10.3f %10.3f %10.3f %8.1f%% %8.1f%% %10.3f %10.2f %9s\n",
              bare_best, slow_best, traced_best, hook_overhead * 100.0,
              total_overhead * 100.0, export_best,
              static_cast<double>(trace_bytes) / (1024.0 * 1024.0),
              uncharged ? "yes" : "NO");

  sim::json::Writer jw;
  jw.begin_object()
      .kv("bench", "tscope_overhead")
      .kv("n", n)
      .kv("procs", procs)
      .kv("bare_host_s", bare_best)
      .kv("bare_slowpath_host_s", slow_best)
      .kv("traced_host_s", traced_best)
      .kv("hook_overhead_pct", hook_overhead * 100.0)
      .kv("total_overhead_pct", total_overhead * 100.0)
      .kv("fastpath_forfeit_pct", forfeit * 100.0)
      .kv("export_host_s", export_best)
      .kv("trace_bytes", static_cast<std::uint64_t>(trace_bytes))
      .kv("spans", spans)
      .kv("references", refs)
      .kv("sim_elapsed_ns", traced_elapsed)
      .kv("uncharged", uncharged)
      .end_object();
  std::printf("%s\n", jw.str().c_str());

  std::printf(
      "\nshape check: uncharged must say yes (identical simulated clocks);\n"
      "hooks is the tracer's own cost vs the slow-path run it rides and\n"
      "should stay well under 2x; total additionally pays the forfeited\n"
      "charge fast path (DESIGN.md 4d) and may be much larger.\n");
  return uncharged ? 0 : 1;
}
