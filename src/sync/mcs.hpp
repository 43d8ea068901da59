// MCS queue locks on simulated Butterfly memory (Mellor-Crummey & Scott —
// Scott being the source paper's second author; "Algorithms for Scalable
// Synchronization on Shared-Memory Multiprocessors", TOCS 1991).
//
// The 1988 paper's complaint about busy-waiting is that every probe of a
// spin lock steals memory cycles from the node that owns the lock word.  An
// MCS lock fixes exactly that: contenders enqueue themselves with a single
// atomic swap on the tail word, then spin on a flag in their *own* node's
// memory.  Waiting costs zero switch traffic and zero foreign module
// cycles; a release touches the network once, to hand the lock to the queue
// head.  The lock is FIFO by construction.
//
// Hook contract: identical to chrys::SpinLock.  The lock's identity channel
// is chan_of(tail cell); acquires, releases, and every waiting probe are
// published there, so the moviola wait-for-graph, the analyze lock-order
// lint, and the race detector's HB edges treat an MCS lock exactly like a
// spin lock.  Waiters stay runnable while spinning (they charge time, never
// park), so quiescence-based deadlock detection sees no false deadlocks
// from local-spin parking.
//
// All cross-worker accesses to qnode words go through PNC atomics (swap),
// which both matches the hardware handoff and keeps those words sync cells
// for the race detector; a worker's plain accesses to its own qnode are
// single-threaded by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sync {

class McsLock {
 public:
  /// `home` hosts the tail word (the only globally shared cell).  Worker
  /// `w` of `worker_nodes` gets its qnode in the local memory of
  /// `worker_nodes[w]` — pass each contender's own node for the zero-
  /// remote-traffic spin the algorithm is about.  `local_probe` is the
  /// local re-check interval while waiting; with `probe_backoff_max` != 0
  /// it doubles per probe up to the cap (bounds host event count for very
  /// long queues; a local probe steals nothing either way).
  McsLock(sim::Machine& m, sim::NodeId home,
          const std::vector<sim::NodeId>& worker_nodes,
          sim::Time local_probe = sim::kMicrosecond,
          sim::Time probe_backoff_max = 0);
  ~McsLock();

  McsLock(const McsLock&) = delete;
  McsLock& operator=(const McsLock&) = delete;

  /// Acquire / release on behalf of worker `w` (0-based index into the
  /// worker_nodes list).  Must be called from a fiber; the usual pairing
  /// discipline applies.
  void acquire(std::uint32_t w);
  void release(std::uint32_t w);

  /// The lock's identity: the tail word (hook channel = chan_of(tail)).
  sim::PhysAddr tail_cell() const { return tail_; }

  std::uint64_t acquisitions() const { return acquisitions_; }
  /// Local flag re-checks while queued — the MCS analogue of SpinLock's
  /// failed probes, except these hit the waiter's own module.
  std::uint64_t local_spins() const { return local_spins_; }

 private:
  sim::Machine& m_;
  sim::PhysAddr tail_;                  // 0 = free, else worker index + 1
  std::vector<sim::PhysAddr> next_;     // per worker, on the worker's node
  std::vector<sim::PhysAddr> locked_;   // per worker, on the worker's node
  sim::Time local_probe_;
  sim::Time probe_backoff_max_;
  sim::RetryPolicy retry_;  // word operations: forever, one probe apart
  std::uint64_t acquisitions_ = 0;
  std::uint64_t local_spins_ = 0;
};

}  // namespace bfly::sync
