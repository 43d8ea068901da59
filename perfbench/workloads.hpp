// The benchmark's three workloads and its layer ladder.
//
// Every runner builds its own sim::Machine(s), calls only the layers'
// public functions, and returns simulated results (deterministic for a
// given seed) separately from host timings (noisy).  A non-null SpanLog
// turns on the traced variant: the same calls wrapped in spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/serve.hpp"
#include "sim/machine.hpp"
#include "sim/stats.hpp"

namespace perfbench {

// --- gauss / observed -------------------------------------------------------

/// One Gaussian-elimination solve on a fresh 128-node Butterfly-I.
struct Solve {
  bool smp = false;           // gauss_smp, else gauss_us
  std::uint32_t procs = 0;
  // Simulated.
  bfly::sim::Time elapsed = 0;
  double error = 0;           // max |x - x_ref| against gauss_reference
  std::uint64_t messages = 0;
  std::uint64_t local_refs = 0;
  std::uint64_t remote_refs = 0;
  bfly::sim::Time queue_ns = 0;
  // Host.
  bfly::sim::HostPerf perf;   // substrate counts (deterministic)
  double setup_s = 0;         // Machine construction
  double host_s = 0;          // the solve call itself
  double cpu_s = 0;           // its thread CPU time
};

struct GaussSpec {
  std::uint32_t n = 384;
  std::vector<std::uint32_t> procs{16, 64, 128};
  std::uint64_t system_seed = 42;  // Gauss system generator seed
};

/// One pass of the `gauss` workload: gauss_us then gauss_smp at every
/// processor count, no observers attached.
std::vector<Solve> run_gauss_pass(const GaussSpec& spec,
                                  const std::vector<double>& reference,
                                  SpanLog* spans);

/// One pass of the `observed` workload: the same gauss_us solve run bare
/// and then with scope::Tracer, analyze::Analyzer and moviola::Detector all
/// attached.
struct ObservedPass {
  Solve bare;
  Solve observed;
  std::uint64_t scope_spans = 0;
  std::uint64_t scope_refs = 0;
  std::uint64_t races = 0;
  std::uint64_t blocked_at_end = 0;
  std::uint64_t stuck_reports = 0;
};
ObservedPass run_observed_pass(const GaussSpec& spec,
                               const std::vector<double>& reference,
                               SpanLog* spans);

// --- serve ------------------------------------------------------------------

/// One open-loop serving run: a fixed offered rate for a fixed simulated
/// window after a fixed set-up window.
struct ServeSpec {
  const char* phase = "heavy";   // light | heavy | ladder
  double offered = 2000;         // ops per simulated second
  bfly::sim::Time duration = 0;  // measured window
  std::uint64_t seed = 1;        // arrival-schedule generator seed
};

/// Open-loop clients of every serving run.
constexpr std::uint32_t kServeClients = 64;

struct ServeRun {
  // Simulated.
  std::vector<bfly::sim::Time> read_resp;   // scheduled arrival -> return
  std::vector<bfly::sim::Time> write_resp;
  std::vector<bfly::sim::Time> service;     // issue -> return
  std::vector<bfly::sim::Time> late;        // schedule -> issue
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t sheds = 0;
  std::uint64_t noreplica = 0;
  bfly::serve::ServeCounters counters;
  std::uint64_t disk_ops = 0;
  std::uint64_t false_suspects = 0;
  std::uint64_t epoch_bumps = 0;
  std::uint64_t live_processes = 0;  // when the window opens
  std::uint64_t local_refs = 0;
  std::uint64_t remote_refs = 0;
  bfly::sim::Time queue_ns = 0;
  bfly::sim::Time setup_end = 0;   // simulated instant the window opened
  bfly::sim::Time elapsed = 0;
  std::uint64_t clients_done = 0;
  std::uint64_t blocked_at_end = 0;  // processes still blocked after run()
  std::uint64_t readback_blocks = 0;
  std::uint64_t readback_stale = 0;  // read-any missed the last write
  std::uint64_t readback_lost = 0;   // still missing after resync
  bfly::sim::HostPerf perf;
  // Host.
  double setup_s = 0;     // construction through the window opening
  double host_s = 0;      // the measured window
};

ServeRun run_serve(const ServeSpec& spec, SpanLog* spans);

/// Highest-rate criteria for the ladder: read p99 from scheduled arrival
/// within this many simulated ms, every request ok, goodput >= 95% of the
/// offered rate.
constexpr double kLadderReadP99LimitMs = 50.0;
bool ladder_rate_ok(const ServeRun& r, const ServeSpec& spec);
double goodput_per_s(const ServeRun& r, const ServeSpec& spec);

// --- layer ladder -----------------------------------------------------------

/// One rung: a layer's public call timed in isolation.
struct Rung {
  std::string name;       // metric stem, e.g. "sim.ladder.event"
  double host_ns = 0;     // median host ns per op over the repeats
  double sim_us = 0;      // simulated us per op (deterministic; 0 = untimed)
  bool has_sim = false;   // the op has a simulated cost
  std::uint64_t ops = 0;  // ops per repeat
  bfly::sim::HostPerf perf;  // substrate counts of one repeat
};

/// Runs every rung `repeats` times; `scale` shrinks the op counts (smoke).
std::vector<Rung> run_ladder(int repeats, double scale);

}  // namespace perfbench
