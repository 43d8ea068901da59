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
// and are borrowed, not copied (see sim::Probe); the log holds an index
// into a table of the distinct pairs.  Span events and closed time bins go
// to one compact byte log (log.hpp) that the exporters decode.  The span
// events are time-ordered by construction — the simulation engine's clock
// never moves backwards — which is what makes the exported trace's
// timestamps monotone and lets the log store times as deltas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scope/log.hpp"
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

  /// What the log holds, per stream.
  struct LogBytes {
    std::size_t spans = 0;    ///< span and instant records
    std::size_t bins = 0;     ///< closed bins: their heads and cells
    std::uint64_t cells = 0;  ///< cells of the closed bins
    std::size_t total() const { return spans + bins; }
  };
  LogBytes log_bytes() const;

  // --- Exports -------------------------------------------------------------
  /// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
  std::string chrome_trace() const;
  /// One bench-style JSON object with counters, series, and the report.
  std::string metrics_json() const;
  CriticalPathReport critical_path() const;
  /// critical_path() rendered as a human-readable text report.
  std::string report() const;

 private:
  struct Track {
    sim::NodeId node;    // kTraceHostNode for engine/host context
    std::uint32_t tid;   // thread index within the node's trace "process"
    std::string name;
    std::uint32_t open = 0;  // current open-span depth
    std::uint32_t skip = 0;  // begins dropped by the cap, ends owed
  };
  /// One node's sums over one time bin.
  struct Sums {
    // Words the node's module served in the bin: its occupancy is
    // home_words * module_service_ns, which the exporters report.
    std::uint64_t home_words = 0;
    sim::Time queue_ns = 0;      // queue wait absorbed in the bin
    std::uint64_t local_words = 0;
    std::uint64_t remote_words = 0;
  };
  static constexpr std::uint64_t Sums::*kSums[] = {
      &Sums::home_words, &Sums::queue_ns, &Sums::local_words,
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
  /// One record of the log as the readers see it: a span event, or one
  /// cell of a closed bin.
  struct Record {
    enum Kind : std::uint8_t { kBegin, kEnd, kInstant, kCell } kind;
    sim::Time at = 0;  // span events
    std::uint32_t track = 0;
    const char* cat = nullptr;  // borrowed literals; null on kEnd
    const char* name = nullptr;
    std::uint64_t arg = 0;
    sim::NodeId node = 0;  // kCell
    Cell cell;
    std::size_t bytes = 0;  // logged bytes (a bin's head counts with its
                            // first cell)
  };
  /// Decodes the log front to back.
  class Reader {
   public:
    explicit Reader(const Tracer& t) : t_(t), in_(t.log_) {}
    /// The next record, or false past the last one.
    bool next(Record& r);

   private:
    const Tracer& t_;
    ByteLog::Cursor in_;
    sim::Time at_ = 0;
    std::size_t bin_ = ~std::size_t{0};
    bool in_bin_ = false;  // the next record is a cell
    std::int64_t node_ = 0;
  };
  struct Span {
    sim::Time begin, end;
    std::uint32_t track;
    const char* cat;
    const char* name;
  };
  struct Name {
    const char* cat;
    const char* name;
    bool operator==(const Name&) const = default;
  };
  struct NameHash {
    std::size_t operator()(const Name& n) const {
      return std::hash<const char*>{}(n.cat) * 31 ^
             std::hash<const char*>{}(n.name);
    }
  };

  std::uint32_t track_for(sim::Fiber* f, sim::NodeId node);
  /// Index of the (cat, name) literal pair in names_, added if new.
  std::uint32_t intern(const char* cat, const char* name);
  /// Start a span event's record on `track`, at now(): its first byte, dt
  /// and track.  Returns where the rest goes; an end has no more.
  std::uint8_t* log_span_event(Record::Kind kind, std::uint32_t track);
  /// Log a begin or an instant on `track`, at now().
  void log_named(Record::Kind kind, std::uint32_t track, const char* cat,
                 const char* name, std::uint64_t arg);
  Sums& touch(sim::NodeId node);
  /// Log the open bin and open the one holding `at`.
  void advance_bin(sim::Time at);
  /// Every node's series: the logged bins, then the open one.
  std::vector<NodeSeries> series() const;
  std::uint32_t chrome_pid(sim::NodeId node) const;
  sim::Time occupancy_ns(const Cell& c) const {
    return c.home_words * m_.config().module_service_ns;
  }
  /// Reconstruct completed spans from the event log (open spans close at
  /// now()).
  std::vector<Span> completed_spans() const;

  sim::Machine& m_;
  ScopeOptions opt_;
  // Track of each context: slot 0 is the host, a fiber's slot is its spawn
  // index + 1 (never reused, unlike its address).
  std::vector<std::uint32_t> track_ix_;
  std::vector<Track> tracks_;
  std::vector<std::uint32_t> next_tid_;  // per node (+1 host slot)
  // Interned (cat, name) pairs, by index and by the pair's pointers.
  std::vector<Name> names_;
  std::unordered_map<Name, std::uint32_t, NameHash> name_ix_;
  // The series: the newest bin touched is open and summed in place; the
  // older ones are closed and logged.
  std::vector<OpenCell> open_;           // per node
  std::vector<sim::NodeId> touched_;     // the first touched_n_: nodes the
  std::size_t touched_n_ = 0;            // open bin saw
  std::size_t open_bin_ = 0;
  sim::Time open_last_ = 0;              // last nanosecond of the open bin
  // The log of both streams, in the order they were appended.  Every value
  // is a length-coded integer (log.hpp); its 3-bit code sits in the
  // record's head.  Byte 0 is the record's kind in bits 0-1.
  //   span event:     [kind | dt << 2 | track << 5] dt, track, and for a
  //                   begin or an instant [name | arg << 3] name, arg
  //   closed bin:     [kCell | gap << 2] gap, then per cell a 2-byte head
  //                   [node delta | sum i << 3 + 3i | last << 15], the
  //                   zigzag node delta and the four sums (a zero sum
  //                   takes no bytes)
  // dt is the time since the previous span event, name the interned pair,
  // gap the bins skipped since the previous closed bin, and a bin's node
  // deltas run from 0 over its cells in touch order; `last` marks the
  // bin's last cell.
  ByteLog log_;
  sim::Time last_at_ = 0;                 // the last span event's time
  std::size_t last_bin_ = ~std::size_t{0};  // the last bin logged (none)

  std::uint64_t begin_count_ = 0;
  std::uint64_t end_count_ = 0;
  std::uint64_t instant_count_ = 0;
  std::uint64_t refs_seen_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace bfly::scope
