// Probes: host-side watchers of a simulated run.
//
// Every timed memory reference, synchronization edge, blocking wait and
// tracing annotation in the stack is reported to the sim::Probe list
// attached to the Machine (Machine::attach / detach, called in attach
// order).  The correctness and observability layers are probes: the race
// detector (bfly::analyze), the wait-for graph (bfly::moviola) and the
// tracer (bfly::scope), and any of them can watch one run together.
// Probes are strictly host-side: a probe may not perform timed operations,
// so an instrumented run is event-identical to a bare run (the
// uncharged-instrumentation invariant the tests assert against Instant
// Replay logs).  With no probe attached every hook is one emptiness test.
//
// Synchronization layers publish happens-before edges through *channels*:
// a release joins the releasing actor's knowledge into the channel, an
// acquire joins the channel into the acquiring actor.  Channel ids share
// one 64-bit namespace, partitioned by the helpers below:
//   * memory words (spin-lock cells, atomic counters) — chan_of(addr);
//   * Chrysalis objects (events, dual queues)         — chan_of_oid(oid);
//   * NET streams                                     — chan_of_stream(id).
#pragma once

#include <cstdint>
#include <string>

#include "sim/config.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class Fiber;

/// A physical address: (node, byte offset within that node's memory).
struct PhysAddr {
  NodeId node = 0;
  std::uint32_t offset = 0;

  PhysAddr plus(std::uint64_t delta) const {
    return PhysAddr{node, static_cast<std::uint32_t>(offset + delta)};
  }
  bool operator==(const PhysAddr&) const = default;
};

/// What kind of memory operation an on_reference observation describes.
enum class MemOp : std::uint8_t {
  kRead,
  kWrite,
  /// PNC atomic read-modify-write (fetch_add, fetch_or, test_and_set).
  /// Marks the word as a synchronization cell: the memory module serializes
  /// word references, so a word managed by atomics orders its plain
  /// accesses too.
  kAtomic,
  /// access_words(): aggregate traffic accounting for tight loops.  These
  /// model reference *volume*, not individual data accesses, so detectors
  /// count them for contention but do not race-check them.
  kAggregate,
};

/// Channel id for a word-addressed synchronization cell.
constexpr std::uint64_t chan_of(PhysAddr a) {
  return (static_cast<std::uint64_t>(a.node) << 32) | a.offset;
}
/// Channel id for a Chrysalis kernel object (event, dual queue).
constexpr std::uint64_t chan_of_oid(std::uint32_t oid) {
  return (1ull << 62) | oid;
}
/// Channel id for a NET stream.
constexpr std::uint64_t chan_of_stream(std::uint32_t id) {
  return (2ull << 62) | id;
}

/// What kind of object a fiber blocked on.
enum class WaitKind : std::uint8_t {
  kEvent,      ///< Chrysalis event (binary semaphore)
  kDualQueue,  ///< Chrysalis dual queue dequeue
};

/// How a blocked fiber came back.
enum class WakeReason : std::uint8_t {
  kServed,   ///< a post/enqueue delivered a datum
  kTimeout,  ///< a timed wait expired with no data
};

/// What happened to a posted datum.
enum class PostOutcome : std::uint8_t {
  kHandoff,      ///< delivered straight to a blocked waiter
  kQueued,       ///< no waiter: queued (dual queue) or left pending (event)
  kOverwrote,    ///< event already pending: the previous datum is LOST
  kDroppedDead,  ///< the only candidate waiter died with its node; dropped
};

/// Pseudo-node id for trace events emitted from engine/host context (no
/// fiber running).  Real nodes are dense from 0, so the sentinel is safe.
inline constexpr NodeId kTraceHostNode = 0xffffffffu;

/// One host-side watcher of a run.  Every callback has an empty default
/// body, so a probe overrides only what it needs: bfly::analyze the memory
/// and happens-before stream, bfly::moviola the blocking edges, bfly::scope
/// the spans and per-reference contention.
///
/// All callbacks run in the context (fiber or engine) that performed the
/// operation and must not charge simulated time.  `f` is nullptr for
/// operations performed from engine/host context.  `cat` and `name` are
/// borrowed string literals: annotation sites pass literals so that tracing
/// allocates nothing on the simulated path.
class Probe {
 public:
  virtual ~Probe() = default;

  // --- Memory and happens-before (bfly::analyze) ---------------------------

  /// One timed reference of `words` 32-bit words starting at `a`, issued by
  /// a fiber running on `requester`, of which `queue_ns` was spent queued
  /// behind other traffic at the home module; `at` is the issue time.
  virtual void on_reference(Fiber* /*f*/, NodeId /*requester*/,
                            PhysAddr /*a*/, std::uint32_t /*words*/,
                            MemOp /*op*/, Time /*queue_ns*/, Time /*at*/) {}
  /// A new fiber was created (parent is nullptr for host-spawned fibers).
  virtual void on_spawn(Fiber* /*parent*/, Fiber* /*child*/) {}
  /// `f` is gone (finished, unwound from a kill, dropped by a kill before
  /// it ran, or abandoned): once per fiber, while `f` is still valid.
  virtual void on_finish(Fiber* /*f*/) {}
  /// Physical memory was returned to the allocator; shadow state for the
  /// range is stale (the allocator hands reused addresses to unrelated
  /// code, which must not inherit old epochs).
  virtual void on_free(PhysAddr /*a*/, std::size_t /*bytes*/) {}
  /// Happens-before edges published by synchronization layers.
  virtual void on_release(Fiber* /*f*/, std::uint64_t /*chan*/) {}
  virtual void on_acquire(Fiber* /*f*/, std::uint64_t /*chan*/) {}
  /// `f` acquired (`held` true) or released (`held` false) spin lock `lock`
  /// (a chan_of channel).  Feeds acquisition-graph lints and maps spin
  /// edges to the current holder; the mutual-exclusion edges themselves
  /// flow through the lock word.
  virtual void on_lock(Fiber* /*f*/, std::uint64_t /*lock*/, bool /*held*/) {}
  /// Symbolization: the runtimes name the shared objects they allocate so
  /// reports can say "US.outstanding" instead of "node 0 +0x10".
  virtual void on_label(PhysAddr /*a*/, std::size_t /*bytes*/,
                        const std::string& /*name*/) {}

  // --- Blocking (bfly::moviola) --------------------------------------------

  /// `f` is about to block waiting on `chan` (a chan_of_oid channel).
  virtual void on_block(Fiber* /*f*/, std::uint64_t /*chan*/,
                        WaitKind /*kind*/) {}
  /// `f` returned from a blocking wait on `chan`.
  virtual void on_wake(Fiber* /*f*/, std::uint64_t /*chan*/,
                       WakeReason /*why*/) {}
  /// A post/enqueue to `chan` by `f`.
  virtual void on_post(Fiber* /*f*/, std::uint64_t /*chan*/,
                       PostOutcome /*out*/) {}
  /// One failed spin-lock probe by `f` on `lock`.  Spinners are runnable,
  /// not blocked: a starving spinner shows up as an ever-growing probe
  /// streak, never as a blocked fiber.
  virtual void on_spin(Fiber* /*f*/, std::uint64_t /*lock*/) {}

  // --- Tracing (bfly::scope) -----------------------------------------------

  /// Open a nested span on the calling track (`f`, or host when nullptr).
  virtual void on_span_begin(Fiber* /*f*/, NodeId /*node*/,
                             const char* /*cat*/, const char* /*name*/,
                             std::uint64_t /*arg*/) {}
  /// Close the innermost open span on the calling track.  Unmatched ends
  /// must be ignored (kill-unwinding can skip begins).
  virtual void on_span_end(Fiber* /*f*/, NodeId /*node*/) {}
  /// A point event on the calling track.
  virtual void on_instant(Fiber* /*f*/, NodeId /*node*/, const char* /*cat*/,
                          const char* /*name*/, std::uint64_t /*arg*/) {}
};

}  // namespace bfly::sim
