// TRECOVERY — time-to-detect and time-to-recover under node kills.
//
// The paper's long multi-day runs (the 128-node connectionist simulations)
// died with the machine and restarted from scratch; a node that failed
// *silently* was worse, hanging the job until a human noticed.  bfly::rescue
// closes both holes: a heartbeat/watchdog membership service detects silent
// deaths in bounded time, and quiesced checkpoints through Bridge stable
// storage bound the work lost to a crash.  This bench quantifies both knobs:
//
//   part 1 (detect):   time from a silent kill to the watchdog's suspicion,
//                      swept over the heartbeat period, with 0/1/4 kills.
//                      The 0-kill rows report the instrumentation overhead.
//   part 2 (recovery): simulated time a restarted run spends re-doing work
//                      lost since the last checkpoint, swept over the
//                      checkpoint interval, for a Gauss-style elimination
//                      sweep and an odd-even transposition sort.  The final
//                      answer must match an uninterrupted run bit-for-bit.
//
// Output: human-readable tables; one JSON row per configuration goes to
// BENCH_recovery.json in the working directory.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/json.hpp"
#include "rescue/checkpoint.hpp"
#include "rescue/rescue.hpp"
#include "us/uniform_system.hpp"

using namespace bfly;

namespace {

// --- part 1: detection latency --------------------------------------------

struct DetectResult {
  sim::Time elapsed = 0;
  sim::Time startup = 0;  // Membership::start(): serialized process creation
  sim::Time grind = 0;    // the for_all span, excluding startup
  sim::Time mean_detect = 0;
  sim::Time max_detect = 0;
  std::uint64_t declared = 0;
  std::uint64_t false_suspects = 0;
};

// A Uniform System grind: `tasks` 4 ms tasks (compute(8000) at 500 ns per
// integer op) over all 8 nodes.
// Shared US structures live on nodes 0-1; kills take pure workers from node
// 7 downward, so no survivor ever references a corpse — detection can only
// come from the heartbeat timeout.
DetectResult run_detect(std::uint32_t tasks, sim::Time hb_period,
                        std::uint32_t kills, bool with_membership) {
  const sim::Time kill_base = 50 * sim::kMillisecond;
  sim::FaultPlan plan;
  std::vector<sim::Time> kill_at;
  for (std::uint32_t i = 0; i < kills; ++i) {
    const sim::Time at = kill_base + i * 2 * sim::kMillisecond;
    plan.kill_silent(7 - i, at);
    kill_at.push_back(at);
  }
  sim::Machine m(sim::butterfly1(8), plan);
  chrys::Kernel k(m);
  us::UsConfig cfg;
  cfg.memory_nodes = 2;
  us::UniformSystem us(k, cfg);
  rescue::RescueConfig rc;
  rc.heartbeat_period = hb_period;
  // Four missed heartbeats plus scheduling jitter: daemons and watchdog
  // share their CPUs with 4 ms tasks and only run at task boundaries, so
  // observed staleness carries slack on a healthy node.
  rc.suspect_after = 4 * hb_period + 2 * sim::kMillisecond;
  rc.monitor_node = 2;  // off the US queue node and off the kill list
  rescue::Membership mem(k, rc);  // its verdicts reach `us` by broadcast
  DetectResult r;
  us.run_main([&] {
    const sim::Time t0 = m.now();
    if (with_membership) mem.start();
    const sim::Time t1 = m.now();
    us.for_all(0, tasks, [](us::TaskCtx& c) { c.m.compute(8000); });
    r.startup = t1 - t0;
    r.grind = m.now() - t1;
    if (with_membership) mem.stop();
  });
  r.elapsed = m.now();
  r.declared = m.stats().suspects_declared;
  r.false_suspects = m.stats().false_suspects;
  for (std::uint32_t i = 0; i < kills; ++i) {
    const sim::Time at = mem.suspected_at(7 - i);
    if (at == 0) continue;  // not detected (e.g. membership off)
    const sim::Time d = at - kill_at[i];
    r.mean_detect += d;
    if (d > r.max_detect) r.max_detect = d;
  }
  if (r.declared > 0) r.mean_detect /= r.declared;
  return r;
}

// --- part 2: recovery cost ------------------------------------------------

// Two deterministic step workloads over shared memory.  Within one step
// every task writes a disjoint slice and reads nothing a peer writes, so
// the bytes after step k are a pure function of the bytes before it — any
// schedule, any node count, any restart gives the same answer.

struct Workload {
  const char* name;
  std::uint32_t words;       // u32s of protected shared state
  std::uint32_t tasks;       // parallel tasks per step
  void (*step)(us::UniformSystem&, sim::Machine&, sim::PhysAddr,
               std::uint32_t words, std::uint32_t step_no);
};

// Gauss-style elimination sweep: square matrix, step s combines pivot row
// (s mod n) into every other row.  Fixed-point u32 arithmetic keeps the
// fingerprint exact.
void gauss_step(us::UniformSystem& us, sim::Machine& m, sim::PhysAddr base,
                std::uint32_t words, std::uint32_t s) {
  std::uint32_t n = 1;
  while (n * n < words) ++n;  // words is a perfect square
  const std::uint32_t pivot = s % n;
  us.for_all(0, n, [=, &m](us::TaskCtx& c) {
    const std::uint32_t r = c.arg;
    if (r == pivot) return;
    for (std::uint32_t col = 0; col < n; ++col) {
      const auto pv = m.read<std::uint32_t>(base.plus((pivot * n + col) * 4));
      const auto rv = m.read<std::uint32_t>(base.plus((r * n + col) * 4));
      m.write<std::uint32_t>(base.plus((r * n + col) * 4),
                             rv * 1664525u - pv * (2654435761u + r));
    }
  });
}

// Odd-even transposition sort: step s compare-exchanges disjoint pairs of
// parity s&1.  After `words` steps the array would be sorted; any prefix of
// steps is still a deterministic permutation-in-progress.
void sort_step(us::UniformSystem& us, sim::Machine& m, sim::PhysAddr base,
               std::uint32_t words, std::uint32_t s) {
  us.for_all(0, words / 2, [=, &m](us::TaskCtx& c) {
    const std::uint32_t j = 2 * c.arg + (s & 1);
    if (j + 1 >= words) return;
    const auto a = m.read<std::uint32_t>(base.plus(j * 4));
    const auto b = m.read<std::uint32_t>(base.plus((j + 1) * 4));
    if (a > b) {
      m.write<std::uint32_t>(base.plus(j * 4), b);
      m.write<std::uint32_t>(base.plus((j + 1) * 4), a);
    }
  });
}

void init_words(sim::Machine& m, sim::PhysAddr base, std::uint32_t words) {
  for (std::uint32_t w = 0; w < words; ++w)
    m.poke<std::uint32_t>(base.plus(w * 4),
                          (w * 2654435761u) ^ 0x9e3779b9u);
}

std::vector<std::uint32_t> read_words(sim::Machine& m, sim::PhysAddr base,
                                      std::uint32_t words) {
  std::vector<std::uint32_t> out(words);
  for (std::uint32_t w = 0; w < words; ++w)
    out[w] = m.peek<std::uint32_t>(base.plus(w * 4));
  return out;
}

constexpr std::uint32_t kCrashStep = 16;  // incarnation A dies after step 15
constexpr std::uint32_t kTotalSteps = 20;

// The uninterrupted reference: all kTotalSteps applied in one incarnation,
// no checkpointer, no Bridge.  Returns the final bytes.
std::vector<std::uint32_t> run_bare(const Workload& w) {
  sim::Machine m(sim::butterfly1(8));
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  const sim::PhysAddr base = m.alloc(1, w.words * 4);
  init_words(m, base, w.words);
  us.run_main([&] {
    for (std::uint32_t s = 0; s < kTotalSteps; ++s)
      w.step(us, m, base, w.words, s);
  });
  return read_words(m, base, w.words);
}

struct RecoverResult {
  std::uint32_t redo_steps = 0;
  sim::Time recover = 0;       // simulated time re-doing lost steps
  std::uint64_t checkpoints = 0;
  bool match = false;
  std::string fault_json;
};

RecoverResult run_recovery(const Workload& w, std::uint32_t every,
                           const std::vector<std::uint32_t>& expect) {
  bridge::StableStore store;
  // Incarnation A: run to the crash point, checkpointing every `every`
  // steps.  The crash is the whole machine going away — exactly the
  // restart-from-scratch scenario the paper's long runs suffered — so the
  // incarnation simply ends with the stable store holding the last image.
  {
    sim::Machine m(sim::butterfly1(8));
    chrys::Kernel k(m);
    us::UniformSystem us(k);
    const sim::PhysAddr base = m.alloc(1, w.words * 4);
    init_words(m, base, w.words);
    us.run_main([&] {
      bridge::BridgeFs fs(k, 2, bridge::DiskParams{}, &store);
      rescue::Checkpointer cp(k, fs, rescue::CheckpointConfig{every, "ck"});
      cp.protect(base, w.words * 4);
      cp.run_steps(kCrashStep, [&](std::uint32_t s) {
        w.step(us, m, base, w.words, s);
      });
      fs.shutdown();
    });
  }
  // Incarnation B: same deterministic allocation sequence, restore the
  // latest checkpoint, re-do the lost steps, finish the job.
  RecoverResult r;
  sim::Machine m(sim::butterfly1(8));
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  const sim::PhysAddr base = m.alloc(1, w.words * 4);
  init_words(m, base, w.words);
  std::vector<std::uint32_t> final_words;
  us.run_main([&] {
    bridge::BridgeFs fs(k, 2, bridge::DiskParams{}, &store);
    rescue::Checkpointer cp(k, fs, rescue::CheckpointConfig{every, "ck"});
    cp.protect(base, w.words * 4);
    if (!cp.restore()) return;  // leaves match=false
    r.redo_steps = kCrashStep - cp.next_step();
    const sim::Time t0 = m.now();
    sim::Time caught_up = t0;
    cp.run_steps(kTotalSteps, [&](std::uint32_t s) {
      if (s == kCrashStep) caught_up = m.now();
      w.step(us, m, base, w.words, s);
    });
    r.recover = caught_up - t0;
    final_words = read_words(m, base, w.words);
    fs.shutdown();
  });
  r.checkpoints = m.stats().checkpoints_taken;
  r.match = final_words == expect;
  r.fault_json = m.stats().fault_json();
  return r;
}

}  // namespace

int main() {
  const bool fast = bench::fast_mode();
  bench::header("TRECOVERY", "failure detection and checkpoint/restart cost",
                "recovery must be bounded in time, not contingent on a "
                "survivor touching the corpse");
  bench::Report report("trecovery", "BENCH_recovery.json");

  // --- part 1 --------------------------------------------------------------
  const std::uint32_t tasks = fast ? 256 : 400;
  std::printf("\npart 1: silent kills at 50 ms, suspect_after = 4 x period + 2 ms, "
              "%u x 4 ms tasks on 8 nodes\n", tasks);
  std::printf("overhead = steady-state heartbeat cost over the zero-kill "
              "grind; one-time startup\n(serialized daemon creation) is "
              "reported separately.\n");
  std::printf("%8s %8s %12s %12s %12s %10s\n", "hb(ms)", "kills",
              "detect(ms)", "max(ms)", "elapsed(s)", "overhead");
  const sim::Time periods[] = {1 * sim::kMillisecond, 2 * sim::kMillisecond,
                               4 * sim::kMillisecond, 8 * sim::kMillisecond};
  const DetectResult bare = run_detect(tasks, periods[0], 0, false);
  for (const sim::Time p : periods) {
    for (const std::uint32_t kills : {0u, 1u, 4u}) {
      const DetectResult r = run_detect(tasks, p, kills, true);
      // Steady-state instrumentation cost: only the zero-kill grind spans
      // are comparable (with kills the span includes degradation).
      const double over =
          kills == 0 ? static_cast<double>(r.grind) /
                               static_cast<double>(bare.grind) -
                           1.0
                     : 0.0;
      char over_col[16] = "-";
      if (kills == 0)
        std::snprintf(over_col, sizeof over_col, "%.1f%%", over * 100.0);
      std::printf("%8.0f %8u %12.1f %12.1f %12.3f %10s\n",
                  bench::seconds(p) * 1e3, kills,
                  bench::seconds(r.mean_detect) * 1e3,
                  bench::seconds(r.max_detect) * 1e3, bench::seconds(r.elapsed),
                  over_col);
      sim::json::Writer jw;
      jw.begin_object()
          .kv("bench", "trecovery")
          .kv("part", "detect")
          .kv("hb_period_ms", bench::seconds(p) * 1e3)
          .kv("kills", kills)
          .kv("declared", r.declared)
          .kv("mean_detect_ms", bench::seconds(r.mean_detect) * 1e3)
          .kv("max_detect_ms", bench::seconds(r.max_detect) * 1e3)
          .kv("elapsed_s", bench::seconds(r.elapsed))
          .kv("grind_s", bench::seconds(r.grind))
          .kv("startup_ms", bench::seconds(r.startup) * 1e3)
          .kv("overhead_pct", over * 100.0)
          .kv("false_suspects", r.false_suspects)
          .end_object();
      report.row(jw.str());
    }
  }

  // --- part 2 --------------------------------------------------------------
  const std::uint32_t gauss_n = fast ? 16 : 24;
  const std::uint32_t sort_words = fast ? 128 : 256;
  const Workload workloads[] = {
      {"gauss", gauss_n * gauss_n, gauss_n, gauss_step},
      {"sort", sort_words, sort_words / 2, sort_step},
  };
  std::printf("\npart 2: crash after step %u of %u, restart from the last "
              "checkpoint, finish, compare bytes\n", kCrashStep, kTotalSteps);
  std::printf("%8s %10s %8s %12s %8s %8s\n", "work", "ckpt-every", "redo",
              "recover(s)", "ckpts", "match");
  for (const Workload& w : workloads) {
    const std::vector<std::uint32_t> expect = run_bare(w);
    for (const std::uint32_t every : {8u, 4u, 2u, 1u}) {
      const RecoverResult r = run_recovery(w, every, expect);
      std::printf("%8s %10u %8u %12.4f %8llu %8s\n", w.name, every,
                  r.redo_steps, bench::seconds(r.recover),
                  static_cast<unsigned long long>(r.checkpoints),
                  r.match ? "yes" : "NO");
      sim::json::Writer jw;
      jw.begin_object()
          .kv("bench", "trecovery")
          .kv("part", "recovery")
          .kv("workload", w.name)
          .kv("ckpt_every", every)
          .kv("redo_steps", r.redo_steps)
          .kv("recover_s", bench::seconds(r.recover))
          .kv("match", r.match)
          .raw(r.fault_json)
          .end_object();
      report.row(jw.str());
      report.gate(r.match, "TRECOVERY: every restart must finish with the "
                           "uninterrupted run's bytes");
    }
  }
  return report.finish(
      "\nshape check: one-kill detect(ms) is suspect_after (4 x hb_period +\n"
      "2 ms) plus 13-17 ms, because the kills land while Membership::start()\n"
      "is still creating daemons: staleness counts from the end of that loop\n"
      "(~61 ms), and the watchdog scans once a period, at the monitor CPU's\n"
      "task boundaries; zero-kill grind overhead stays in the single-digit\n"
      "percent range; recover(s) decreases monotonically as checkpoints get\n"
      "more frequent; every recovery row must say match=yes (bit-for-bit).\n");
}
