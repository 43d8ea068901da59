// Barriers for large simulated machines: the 1988 centralized counter +
// sense flag, and the scalable sense-reversing combining tree.
//
// CentralBarrier is what Butterfly programs actually did (and what
// us::wait_idle's hot decrement cell amounts to): every arrival fetch-adds
// one counter word, every waiter spins across the switch on one sense word.
// Arrival is serialized by the home module — O(n) — and the spin probes
// steal that module's cycles, which is the paper's own busy-waiting
// complaint scaled up.
//
// TreeBarrier is the combining-tree/MCS-style fix (Mellor-Crummey & Scott,
// TOCS 1991): workers arrive in groups of `arity` at scattered per-subtree
// counter cells; the last arriver of each group carries the arrival one
// level up.  Waiters spin on a sense flag in their *own* node's memory, and
// the release fans back down the same tree — O(arity * log_arity n) remote
// references on the critical path, zero remote spin traffic.
//
// Both publish release edges on arrival and acquire edges on departure
// (plus observe_spin probes while waiting) on the barrier's identity
// channel, so the race detector orders cross-phase data accesses and the
// moviola detector can name a wedged barrier.  Sense reversal means no
// flag resets: waiters alternate the value they wait for each episode.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sync {

class CentralBarrier {
 public:
  /// Counter and sense words live on `home` (the hot spot).  `probe` is the
  /// (remote) sense re-check interval; with `probe_backoff_max` != 0 it
  /// doubles per probe up to the cap.
  CentralBarrier(sim::Machine& m, sim::NodeId home, std::uint32_t workers,
                 sim::Time probe = 5 * sim::kMicrosecond,
                 sim::Time probe_backoff_max = 0);

  /// Block (spin) worker `w` until all workers have arrived.
  void arrive(std::uint32_t w);

  /// The barrier's identity channel cell (the sense word's home).
  sim::PhysAddr sense_cell() const { return sense_; }
  std::uint64_t spins() const { return spins_; }

 private:
  sim::Machine& m_;
  std::uint32_t n_;
  sim::PhysAddr count_;
  sim::PhysAddr sense_;
  sim::Time probe_;
  sim::Time probe_backoff_max_;
  sim::RetryPolicy retry_;  // word operations: forever, one probe apart
  std::vector<std::uint64_t> epoch_;
  std::uint64_t spins_ = 0;
};

class TreeBarrier {
 public:
  /// Worker `w` lives on `worker_nodes[w]`; its sense flag is allocated
  /// there so waiting is a local spin.  Subtree counter cells scatter
  /// across the machine (each on its first worker's node).  `arity` is
  /// clamped to [2, 8].
  TreeBarrier(sim::Machine& m, const std::vector<sim::NodeId>& worker_nodes,
              std::uint32_t arity = 4, sim::Time local_probe = sim::kMicrosecond,
              sim::Time probe_backoff_max = 0);

  void arrive(std::uint32_t w);

  /// Identity channel cell: the root arrival counter.
  sim::PhysAddr root_cell() const { return tree_.back()[0].count; }
  std::uint64_t local_spins() const { return local_spins_; }
  std::uint32_t levels() const { return static_cast<std::uint32_t>(tree_.size()); }

 private:
  struct TreeNode {
    sim::PhysAddr count;
    std::vector<sim::PhysAddr> reps;  // child representatives (levels >= 1)
    std::uint32_t fanin = 0;
  };

  sim::Machine& m_;
  std::uint32_t arity_;
  sim::Time local_probe_;
  sim::Time probe_backoff_max_;
  sim::RetryPolicy retry_;  // word operations: forever, one probe apart
  std::vector<std::vector<TreeNode>> tree_;  // [level][group]
  std::vector<sim::PhysAddr> flag_;          // per worker, on its own node
  std::vector<std::uint64_t> epoch_;
  std::uint64_t local_spins_ = 0;
};

}  // namespace bfly::sync
