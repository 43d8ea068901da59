// Spin locks built from the PNC's atomic memory operations (Section 2.2:
// "Atomic memory operations can be used to implement spin locks").
//
// Busy-waiting on a shared location is the common Butterfly synchronization
// technique the paper warns about: waiting processors accomplish no useful
// work, and every probe steals memory cycles from the node holding the lock
// word.  The probe interval is configurable because the paper notes that
// "programs can be highly sensitive to the amount of time spent between
// attempts to set a lock" — and an optional exponential backoff implements
// the standard mitigation: each failed probe doubles the wait (up to a cap),
// trading handoff latency for probe pressure on the home module.
//
// Spin and acquisition counts aggregate into MachineStats (lock_spins /
// lock_acquisitions) so benches read one machine-wide number instead of
// keeping every lock instance alive; the per-instance getters remain for
// targeted measurements.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/machine.hpp"

namespace bfly::chrys {

class SpinLock {
 public:
  /// The lock word must be an allocated 4-byte cell initialized to 0.
  /// `backoff_max` = 0 disables backoff (every probe waits exactly
  /// `probe_interval`); otherwise the wait doubles per failed probe up to
  /// the cap and resets on acquisition.
  SpinLock(sim::Machine& m, sim::PhysAddr cell,
           sim::Time probe_interval = 5 * sim::kMicrosecond,
           sim::Time backoff_max = 0)
      : m_(m),
        cell_(cell),
        probe_interval_(probe_interval),
        backoff_max_(backoff_max) {}

  /// Acquire by test-and-set; every failed probe spins (and steals cycles
  /// from the home module of the lock word).  A transient memory fault on a
  /// probe is just a failed probe — spin again.  (A *dead* home node still
  /// throws: that lock is gone for good.)
  void acquire() {
    sim::Time wait = probe_interval_;
    for (;;) {
      try {
        if (m_.test_and_set(cell_) == 0) break;
      } catch (const sim::MemoryFaultError&) {
      }
      ++spins_;
      ++m_.stats().lock_spins;
      m_.observe_spin(sim::chan_of(cell_));
      m_.charge(wait);
      if (backoff_max_ != 0) wait = std::min(wait * 2, backoff_max_);
    }
    ++acquisitions_;
    ++m_.stats().lock_acquisitions;
    m_.observe_lock(sim::chan_of(cell_), true);
  }

  bool try_acquire() {
    try {
      if (m_.test_and_set(cell_) == 0) {
        ++acquisitions_;
        ++m_.stats().lock_acquisitions;
        m_.observe_lock(sim::chan_of(cell_), true);
        return true;
      }
    } catch (const sim::MemoryFaultError&) {
    }
    ++spins_;
    ++m_.stats().lock_spins;
    m_.observe_spin(sim::chan_of(cell_));
    return false;
  }

  void release() {
    // A transient memory fault on the release write would leave the lock
    // held forever and wedge every spinner; the PNC retries the store, back
    // to back.
    m_.observe_lock(sim::chan_of(cell_), false);
    m_.retry(sim::RetryPolicy::forever(0),
             [&] { m_.write<std::uint32_t>(cell_, 0); });
  }

  std::uint64_t acquisitions() const { return acquisitions_; }
  /// Failed probes: a direct measure of busy-wait contention.
  std::uint64_t spins() const { return spins_; }

 private:
  sim::Machine& m_;
  sim::PhysAddr cell_;
  sim::Time probe_interval_;
  sim::Time backoff_max_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t spins_ = 0;
};

}  // namespace bfly::chrys
