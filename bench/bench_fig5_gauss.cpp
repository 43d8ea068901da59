// FIG5 — Gaussian elimination: shared memory (Uniform System) versus
// message passing (SMP), reproducing Figure 5 of the paper.
//
// Paper's observations (Section 4.1):
//   * below 64 processors the SMP (message passing) implementation
//     outperforms the Uniform System implementation, despite messages being
//     far more expensive than shared references;
//   * beyond 64 processors the Uniform System timings stay roughly flat;
//   * the SMP timings actually *increase* beyond 64 processors, because its
//     communication volume is P*N messages — doubling the parallelism
//     doubles the communication — while the Uniform System's volume,
//     (N^2-N)+P(N-1), grows only weakly with P.
//
// Gates: message passing beats shared memory at 8, 16 and 32 processors,
// and its time at 128 processors exceeds its time at 64.
//
// Rows file: BENCH_fig5.json, one row per processor count with both
// models' simulated elapsed time in ns, the US remote references and the
// SMP messages.

// Set BFLY_TRACE=<path> to also run the 8-processor US configuration under
// a scope::Tracer: the Chrome trace lands at <path> and the critical-path /
// Amdahl report prints after the table.  Tracing is uncharged, so the
// traced run's timings match the table's 8-processor row exactly.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "apps/gauss.hpp"
#include "bench_common.hpp"
#include "scope/scope.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"

int main() {
  using namespace bfly;
  const std::uint32_t n = bench::fast_mode() ? 96 : 384;
  const char* trace_path = std::getenv("BFLY_TRACE");
  bench::Report report("fig5", "BENCH_fig5.json");
  bench::header("FIG5", "Gaussian elimination, shared memory vs message passing",
                "SMP wins < 64 procs; US flat beyond 64; SMP rises past 64");
  std::printf("matrix N=%u, machine: 128-node Butterfly-I\n\n", n);
  std::printf("%6s %14s %14s %16s %12s\n", "procs", "shared-mem(s)",
              "msg-pass(s)", "US remote refs", "SMP msgs");

  const std::uint32_t procs[] = {8, 16, 32, 48, 64, 96, 128};
  sim::Time smp64 = 0, smp128 = 0;
  for (std::uint32_t p : procs) {
    apps::GaussConfig cfg;
    cfg.n = n;
    cfg.processors = p;

    // 4 MB memory boards (the upgrade BBN offered): N=384 rows plus
    // in-flight message buffers exceed the stock 1 MB on the gather node.
    sim::MachineConfig mc = sim::butterfly1(128);
    mc.memory_per_node = 4u << 20;

    sim::Machine mu(mc);
    // Trace the smallest US configuration (uncharged: same elapsed either
    // way), and hold the report until after the table prints.
    std::unique_ptr<scope::Tracer> tracer;
    if (trace_path != nullptr && p == 8)
      tracer = std::make_unique<scope::Tracer>(mu);
    const apps::GaussResult ru = apps::gauss_us(mu, cfg);
    if (tracer != nullptr) {
      std::FILE* f = std::fopen(trace_path, "w");
      if (f != nullptr) {
        const std::string trace = tracer->chrome_trace();
        std::fwrite(trace.data(), 1, trace.size(), f);
        std::fclose(f);
      }
    }

    sim::Machine ms(mc);
    const apps::GaussResult rs = apps::gauss_smp(ms, cfg);
    if (p <= 32)
      report.gate(rs.elapsed < ru.elapsed,
                  "FIG5: message passing must beat shared memory at P <= 32");
    if (p == 64) smp64 = rs.elapsed;
    if (p == 128) smp128 = rs.elapsed;

    std::printf("%6u %14.2f %14.2f %16llu %12llu\n", p,
                bench::seconds(ru.elapsed), bench::seconds(rs.elapsed),
                static_cast<unsigned long long>(ru.remote_refs),
                static_cast<unsigned long long>(rs.messages));
    sim::json::Writer jw;
    jw.begin_object()
        .kv("bench", "fig5")
        .kv("n", n)
        .kv("procs", p)
        .kv("us_elapsed_ns", ru.elapsed)
        .kv("smp_elapsed_ns", rs.elapsed)
        .kv("us_remote_refs", ru.remote_refs)
        .kv("smp_messages", rs.messages)
        .end_object();
    report.row(jw.str());
    if (tracer != nullptr) {
      std::printf("\n-- scope report for the traced 8-processor US run "
                  "(trace: %s) --\n%s\n", trace_path,
                  tracer->report().c_str());
    }
  }
  report.gate(smp128 > smp64,
              "FIG5: message passing must slow down from 64 to 128 procs");
  return report.finish(
      "\nshape check: min of msg-pass column should sit near 64 procs and\n"
      "rise beyond it, while shared-mem flattens (crossover near 64).\n");
}
