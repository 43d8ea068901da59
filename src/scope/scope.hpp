// bfly::scope — uncharged tracing, metrics, and critical-path profiling.
//
// A Tracer is a sim::Probe: it records the span/instant annotations the
// runtime layers emit (Chrysalis process lifecycle, Uniform System task
// execution, SMP sends, NET stream writes, Bridge requests, rescue
// heartbeats/checkpoints) plus every timed memory reference, all against the
// *simulated* clock.  Like bfly::analyze it is strictly host-side: an
// instrumented run is event-identical to a bare run (asserted with Instant
// Replay log equality in tests/integration/uncharged_test.cpp).
//
// What it gives you:
//   * chrome_trace()   — Chrome/Perfetto trace-event JSON; one "process"
//                        track per simulated node (pid = node + 1, the host
//                        context is the last pid), one "thread" per fiber,
//                        and per-node counter tracks for memory-module
//                        occupancy, module-queue contention, and the
//                        local/remote reference mix.
//   * metrics_json()   — the same aggregates as one bench-style JSON object.
//   * critical_path()  — a critical-path / Amdahl decomposition over the
//                        Uniform System task graph ("us"/"task" spans with
//                        "us"/"wait_idle" barriers): simulated time
//                        attributed to compute vs. remote-memory wait vs.
//                        contention vs. idle, serial fraction, and a
//                        speedup bound; report() renders it as text.
//
// Span categories/names arrive as string literals from the annotation sites
// and are borrowed, not copied (see sim::Probe).  The event log is
// time-ordered by construction — the simulation engine's clock never moves
// backwards — which is what makes the exported trace's timestamps monotone.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"
#include "sim/observe.hpp"
#include "sim/time.hpp"

namespace bfly::scope {

struct ScopeOptions {
  /// Width of the time-series bins (occupancy / contention / locality).
  sim::Time bin_ns = sim::kMillisecond;
  /// Safety cap on recorded span/instant events.  Past the cap new spans
  /// are dropped (balanced: their ends are dropped too) and counted in
  /// dropped_events() — the exporters report the drop, never hide it.
  std::size_t max_events = 1u << 22;
};

/// Per-phase slice of the critical-path report.  A phase is the interval
/// between consecutive Uniform System barriers ("us"/"wait_idle" span ends).
struct PhaseStat {
  sim::Time begin = 0;
  sim::Time end = 0;
  std::uint64_t tasks = 0;
  sim::Time busy = 0;     ///< sum of task durations in the phase
  sim::Time longest = 0;  ///< the phase's critical task
};

struct CriticalPathReport {
  sim::Time elapsed = 0;       ///< machine time at export
  std::uint64_t tasks = 0;     ///< "us"/"task" spans observed
  std::uint32_t workers = 0;   ///< tracks that executed at least one task
  sim::Time task_busy = 0;     ///< sum of all task durations
  /// Time during which at most one task was in flight — the measured
  /// Amdahl serial fraction of the run.
  sim::Time serial_ns = 0;
  double serial_fraction = 0.0;
  double avg_parallelism = 0.0;  ///< task_busy / elapsed
  /// Lower bound on the run under perfect parallelism: all time outside
  /// task execution (the serial glue) plus each phase's longest task.
  sim::Time critical_path = 0;
  /// Estimated one-processor time: serial glue + every task run back to
  /// back.  speedup_bound = serial_elapsed_est / critical_path.
  sim::Time serial_elapsed_est = 0;
  double speedup_bound = 0.0;
  std::vector<PhaseStat> phases;

  // Capacity decomposition over the nodes that ran tasks: where did
  // workers * elapsed processor-nanoseconds go?
  std::uint32_t worker_nodes = 0;
  sim::Time capacity = 0;        ///< worker_nodes * elapsed
  sim::Time compute_ns = 0;      ///< explicit compute charges
  sim::Time mem_wait_ns = 0;     ///< reference latency minus queueing
  sim::Time contention_ns = 0;   ///< queueing behind busy memory modules
  sim::Time idle_ns = 0;         ///< remainder: idle + untracked overheads
};

class Tracer final : public sim::Probe {
 public:
  /// Attaches to `m` as a probe for the Tracer's lifetime.
  explicit Tracer(sim::Machine& m, ScopeOptions opt = {});
  ~Tracer() override;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- sim::Probe ----------------------------------------------------------
  void on_spawn(sim::Fiber* parent, sim::Fiber* child) override;
  void on_span_begin(sim::Fiber* f, sim::NodeId node, const char* cat,
                     const char* name, std::uint64_t arg) override;
  void on_span_end(sim::Fiber* f, sim::NodeId node) override;
  void on_instant(sim::Fiber* f, sim::NodeId node, const char* cat,
                  const char* name, std::uint64_t arg) override;
  void on_reference(sim::Fiber* f, sim::NodeId requester, sim::PhysAddr a,
                    std::uint32_t words, sim::MemOp op, sim::Time queue_ns,
                    sim::Time at) override;

  // --- Introspection (tests) -----------------------------------------------
  std::uint64_t spans_begun() const { return begin_count_; }
  std::uint64_t spans_completed() const { return end_count_; }
  std::uint64_t instants_recorded() const { return instant_count_; }
  std::uint64_t references_seen() const { return refs_seen_; }
  std::uint64_t dropped_events() const { return dropped_; }
  std::size_t tracks() const { return tracks_.size(); }

  // --- Exports -------------------------------------------------------------
  /// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
  std::string chrome_trace() const;
  /// One bench-style JSON object with counters, series, and the report.
  std::string metrics_json() const;
  CriticalPathReport critical_path() const;
  /// critical_path() rendered as a human-readable text report.
  std::string report() const;

 private:
  struct Event {
    sim::Time at;
    enum Kind : std::uint8_t { kBegin, kEnd, kInstant } kind;
    std::uint32_t track;
    const char* cat;  // borrowed literals; null on kEnd
    const char* name;
    std::uint64_t arg;
  };
  struct Track {
    sim::NodeId node;    // kTraceHostNode for engine/host context
    std::uint32_t tid;   // thread index within the node's trace "process"
    std::string name;
    std::uint32_t open = 0;  // current open-span depth
    std::uint32_t skip = 0;  // begins dropped by the cap, ends owed
  };
  /// One time bin of one node's series.  A node's cells are in bin order
  /// and hold only bins that saw traffic; the exporters zero-fill the rest.
  struct Cell {
    std::size_t bin = 0;
    sim::Time occupancy_ns = 0;  // module service time in the bin
    sim::Time queue_ns = 0;      // queue wait absorbed in the bin
    std::uint64_t local_words = 0;
    std::uint64_t remote_words = 0;
  };
  using NodeSeries = std::vector<Cell>;
  struct Span {
    sim::Time begin, end;
    std::uint32_t track;
    const char* cat;
    const char* name;
  };

  std::uint32_t track_for(sim::Fiber* f, sim::NodeId node);
  std::uint32_t chrome_pid(sim::NodeId node) const;
  /// Reconstruct completed spans from the event log (open spans close at
  /// now()).
  std::vector<Span> completed_spans() const;

  sim::Machine& m_;
  ScopeOptions opt_;
  std::vector<Event> events_;
  std::unordered_map<const void*, std::uint32_t> track_ix_;
  std::vector<Track> tracks_;
  std::vector<std::uint32_t> next_tid_;  // per node (+1 host slot)
  std::vector<NodeSeries> series_;       // per node, sparse
  std::size_t max_bin_ = 0;              // highest bin touched, over all nodes

  std::uint64_t begin_count_ = 0;
  std::uint64_t end_count_ = 0;
  std::uint64_t instant_count_ = 0;
  std::uint64_t refs_seen_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace bfly::scope
