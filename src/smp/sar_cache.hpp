// The SMP SAR cache (Section 3.2).
//
// An SMP process with many communication channels cannot keep every
// channel's buffer mapped: SARs are scarce.  Mapping or unmapping costs
// over a millisecond, so SMP "incorporates an optional SAR cache that
// delays unmap operations as long as possible, in hopes of avoiding a
// subsequent map".  This is that cache: an LRU over channel buffer
// mappings with a fixed SAR budget.  A hit is free; a miss charges one map
// (plus one unmap when a victim must be evicted).
//
// Channels are dense slots 0..slots-1 chosen by the owner (smp::Member
// numbers them by peer and direction).  Recency is an intrusive doubly
// linked list kept in two index arrays with a sentinel at index `slots`,
// so a hit, a miss and an eviction are each O(1), and nothing is hashed
// or allocated after construction.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::smp {

class SarCache {
 public:
  /// `capacity` is the number of channel buffers that may stay mapped;
  /// `slots` is the number of distinct channels.  capacity 0 disables
  /// caching: every access pays map + unmap.
  SarCache(sim::Machine& m, std::uint32_t capacity, std::uint32_t slots)
      : m_(m),
        capacity_(capacity),
        sentinel_(slots),
        prev_(slots + 1, kUnmapped),
        next_(slots + 1, kUnmapped) {
    prev_[sentinel_] = next_[sentinel_] = sentinel_;
  }

  /// Touch channel `slot` before using its buffer; charges the calling
  /// fiber for whatever SAR traffic is needed.
  void access(std::uint32_t slot) {
    assert(slot < sentinel_);
    const sim::Time map_cost = m_.config().sar_map_ns;
    if (capacity_ == 0) {
      m_.charge(2 * map_cost);  // map now, unmap immediately after use
      misses_++;
      return;
    }
    if (next_[slot] != kUnmapped) {
      unlink(slot);  // refresh
      push_front(slot);
      hits_++;
      return;
    }
    misses_++;
    sim::Time cost = map_cost;
    if (mapped_ >= capacity_) {
      const std::uint32_t victim = prev_[sentinel_];
      unlink(victim);
      next_[victim] = kUnmapped;
      --mapped_;
      cost += map_cost;  // evicting unmaps the victim
      evictions_++;
    }
    push_front(slot);
    ++mapped_;
    m_.charge(cost);
  }

  /// Drop every mapping (e.g. before the process exits), charging unmaps.
  void flush() {
    if (mapped_ > 0) m_.charge(mapped_ * m_.config().sar_map_ns);
    for (std::uint32_t s = next_[sentinel_]; s != sentinel_;) {
      const std::uint32_t n = next_[s];
      next_[s] = kUnmapped;
      s = n;
    }
    prev_[sentinel_] = next_[sentinel_] = sentinel_;
    mapped_ = 0;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  // next_[s] == kUnmapped marks a slot that is not in the list.
  static constexpr std::uint32_t kUnmapped = 0xffffffffu;

  void unlink(std::uint32_t s) {
    next_[prev_[s]] = next_[s];
    prev_[next_[s]] = prev_[s];
  }
  void push_front(std::uint32_t s) {
    const std::uint32_t first = next_[sentinel_];
    prev_[s] = sentinel_;
    next_[s] = first;
    prev_[first] = s;
    next_[sentinel_] = s;
  }

  sim::Machine& m_;
  std::uint32_t capacity_;
  std::uint32_t sentinel_;           // == slots; head and tail of the list
  std::vector<std::uint32_t> prev_;  // toward the most recent
  std::vector<std::uint32_t> next_;  // toward the least recent
  std::uint32_t mapped_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace bfly::smp
