// Idle/outstanding-work counters: the 1988 single hot word vs per-node
// distributed cells with aggregated reads.
//
// The Uniform System tracks outstanding tasks in one shared counter on node
// 0: every generation increments it, every completion decrements it, and on
// a big machine that cell becomes the hottest word in the program — each of
// N managers keeps an atomic add in flight, so the home module serializes
// the whole crowd (the paper's memory-contention lesson applied to the US's
// own bookkeeping).
//
// DistributedCounter splits the count into one cell per participating node.
// Adds hit the caller's *own* cell — local, contention-free, O(1) — at the
// price of an inexact read: the true value is the modular sum over all
// cells, which read() computes with a charged scan.  That trade is exactly
// right for idle detection, where the only interesting question is "is the
// sum zero", polled rarely.
//
// The interface mirrors how us::UniformSystem actually uses its counter,
// including the fault-recovery warts: host-side peeks for crash handlers,
// an owed-decrement adjustment, and excision of dead nodes' cells (their
// last value folds into a host-side accumulator so the count survives the
// node).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sync {

class IdleCounter {
 public:
  /// Returned by add() when the counter cannot cheaply report the previous
  /// global value (distributed adds are local by design).
  static constexpr std::uint32_t kUnknown = 0xffffffffu;

  virtual ~IdleCounter() = default;

  /// True if add() returns the exact previous global value — i.e. a single
  /// decrementer can detect "I took it to zero" without a read().
  virtual bool exact() const = 0;

  /// Atomically add `delta` (mod 2^32; pass 0xffffffffu to decrement) from
  /// the calling fiber.  Returns the previous global value when exact(),
  /// kUnknown otherwise.  Charged.
  virtual std::uint32_t add(std::uint32_t delta) = 0;

  /// Charged read of the global value (a scan, for distributed counters).
  /// Never returns a false zero while decrements-only traffic is in flight;
  /// may transiently over-read during a scan.
  virtual std::uint32_t read() = 0;

  /// Host-side (untimed) snapshot — for crash handlers, which act on behalf
  /// of dead nodes and must not charge simulated time.
  virtual std::uint32_t peek_total() = 0;

  /// Host-side adjustment (e.g. applying a dead manager's owed decrement).
  virtual void poke_adjust(std::int32_t delta) = 0;

  /// Node `n` died: preserve whatever its cell holds and stop touching it.
  virtual void excise(sim::NodeId n) = 0;

  /// The counter's identity channel cell (for hooks and tests).
  virtual sim::PhysAddr cell() const = 0;
};

/// The 1988 counter: one cell, typically on node 0.  Byte-for-byte the
/// allocation and access pattern the Uniform System always had.
class CentralCounter final : public IdleCounter {
 public:
  CentralCounter(sim::Machine& m, sim::NodeId home, const std::string& label);

  bool exact() const override { return true; }
  std::uint32_t add(std::uint32_t delta) override;
  std::uint32_t read() override;
  std::uint32_t peek_total() override;
  void poke_adjust(std::int32_t delta) override;
  void excise(sim::NodeId) override {}  // peeks/pokes work on dead nodes
  sim::PhysAddr cell() const override { return cell_; }

 private:
  sim::Machine& m_;
  sim::PhysAddr cell_;
};

/// One cell per entry of `cell_nodes` (normally the participating
/// processors), each in that node's local memory.  A caller's add lands on
/// the cell mapped to its current node (fallback: node mod #cells, for
/// callers outside the pool).  read() sums the live cells mod 2^32 —
/// individual cells wrap freely (a worker that only ever decrements holds a
/// huge unsigned value); only the sum is meaningful.
///
/// Adds publish a release edge and reads an acquire edge on the identity
/// channel, so the race detector orders task-completion writes before the
/// waiter's post-wait_idle reads.
class DistributedCounter final : public IdleCounter {
 public:
  DistributedCounter(sim::Machine& m, const std::vector<sim::NodeId>& cell_nodes,
                     const std::string& label);

  bool exact() const override { return false; }
  std::uint32_t add(std::uint32_t delta) override;
  std::uint32_t read() override;
  std::uint32_t peek_total() override;
  void poke_adjust(std::int32_t delta) override;
  void excise(sim::NodeId n) override;
  sim::PhysAddr cell() const override { return cells_[0]; }

  std::uint32_t cells() const { return static_cast<std::uint32_t>(cells_.size()); }

 private:
  std::uint32_t slot_of(sim::NodeId n) const;
  // Preserve cell i's value host-side and retire it (its node is dead).
  void fold(std::uint32_t i);

  sim::Machine& m_;
  std::vector<sim::PhysAddr> cells_;
  std::vector<std::uint8_t> dead_;
  std::unordered_map<sim::NodeId, std::uint32_t> node_slot_;
  // Sum of excised cells plus host-side adjustments, mod 2^32.
  std::uint32_t folded_ = 0;
};

}  // namespace bfly::sync
