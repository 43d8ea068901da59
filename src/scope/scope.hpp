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
#include <memory>
#include <string>
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
  /// One node's sums over one time bin.
  struct Sums {
    sim::Time occupancy_ns = 0;  // module service time in the bin
    sim::Time queue_ns = 0;      // queue wait absorbed in the bin
    std::uint64_t local_words = 0;
    std::uint64_t remote_words = 0;
  };
  static constexpr std::uint64_t Sums::*kSums[] = {
      &Sums::occupancy_ns, &Sums::queue_ns, &Sums::local_words,
      &Sums::remote_words};
  /// One time bin of one node's series as the exporters read it.  A node's
  /// cells are in bin order and hold only bins that saw traffic; the
  /// exporters zero-fill the rest.
  struct Cell : Sums {
    std::size_t bin = 0;
  };
  using NodeSeries = std::vector<Cell>;
  /// A node's sums in the open bin; `touched` marks a node the bin saw,
  /// which yields a cell even when all its sums are zero.
  struct OpenCell {
    Sums sums;
    bool touched = false;
  };
  /// Append-only word log of the closed bins.  It grows a fixed-size chunk
  /// at a time, so an append never copies what is already logged.  Each
  /// chunk has room for one more record past its nominal end, so a record
  /// never straddles two chunks and may be written without bounds checks.
  struct BinLog {
    static constexpr std::size_t kChunkWords = 4096;
    static constexpr std::size_t kMaxRecord = 5;  // words
    std::vector<std::unique_ptr<std::uint64_t[]>> chunks;
    std::vector<std::size_t> used;  // words written, per full chunk
    std::uint64_t* next = nullptr;  // first free word of the last chunk
    std::uint64_t* end = nullptr;   // nominal end of the last chunk
    /// Where the next record of at most kMaxRecord words goes; the writer
    /// moves `next` past what it wrote.
    std::uint64_t* record() {
      if (next >= end) {
        if (!chunks.empty())
          used.push_back(static_cast<std::size_t>(next - chunks.back().get()));
        chunks.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(
            kChunkWords + kMaxRecord));
        next = chunks.back().get();
        end = next + kChunkWords;
      }
      return next;
    }
    /// Every logged word, in order.
    std::vector<std::uint64_t> words() const;
  };
  struct Span {
    sim::Time begin, end;
    std::uint32_t track;
    const char* cat;
    const char* name;
  };

  std::uint32_t track_for(sim::Fiber* f, sim::NodeId node);
  Sums& touch(sim::NodeId node);
  /// Log the open bin and open the one holding `at`.
  void advance_bin(sim::Time at);
  /// Every node's series: the logged bins, then the open one.
  std::vector<NodeSeries> series() const;
  std::uint32_t chrome_pid(sim::NodeId node) const;
  /// Reconstruct completed spans from the event log (open spans close at
  /// now()).
  std::vector<Span> completed_spans() const;

  sim::Machine& m_;
  ScopeOptions opt_;
  std::vector<Event> events_;
  // Track of each context: slot 0 is the host, a fiber's slot is its spawn
  // index + 1 (never reused, unlike its address).
  std::vector<std::uint32_t> track_ix_;
  std::vector<Track> tracks_;
  std::vector<std::uint32_t> next_tid_;  // per node (+1 host slot)
  // The series: the newest bin touched is open and summed in place; the
  // older ones are closed and logged.  Per closed bin the log holds
  // [bin, cells], then per cell [node << 4 | mask] and the sums whose
  // kSums bit is set in the mask.
  std::vector<OpenCell> open_;           // per node
  std::vector<sim::NodeId> touched_;     // the first touched_n_: nodes the
  std::size_t touched_n_ = 0;            // open bin saw
  std::size_t open_bin_ = 0;
  sim::Time open_last_ = 0;              // last nanosecond of the open bin
  BinLog log_;

  std::uint64_t begin_count_ = 0;
  std::uint64_t end_count_ = 0;
  std::uint64_t instant_count_ = 0;
  std::uint64_t refs_seen_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace bfly::scope
