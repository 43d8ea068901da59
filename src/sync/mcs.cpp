#include "sync/mcs.hpp"

#include <algorithm>
#include <string>

namespace bfly::sync {

McsLock::McsLock(sim::Machine& m, sim::NodeId home,
                 const std::vector<sim::NodeId>& worker_nodes,
                 sim::Time local_probe, sim::Time probe_backoff_max)
    : m_(m),
      local_probe_(local_probe),
      probe_backoff_max_(probe_backoff_max) {
  tail_ = m_.alloc(home, 8);
  m_.poke<std::uint32_t>(tail_, 0);
  m_.label_memory(tail_, 8, "sync.mcs.tail");
  next_.reserve(worker_nodes.size());
  locked_.reserve(worker_nodes.size());
  for (std::size_t w = 0; w < worker_nodes.size(); ++w) {
    // One 8-byte qnode per worker in that worker's local memory: the next
    // pointer and the flag it spins on.
    const sim::PhysAddr q = m_.alloc(worker_nodes[w], 8);
    m_.poke<std::uint32_t>(q, 0);
    m_.poke<std::uint32_t>(sim::PhysAddr{q.node, q.offset + 4}, 0);
    m_.label_memory(q, 8, "sync.mcs.qnode[" + std::to_string(w) + "]");
    next_.push_back(q);
    locked_.push_back(sim::PhysAddr{q.node, q.offset + 4});
  }
}

McsLock::~McsLock() = default;

std::uint32_t McsLock::swap_retry(sim::PhysAddr a, std::uint32_t v) {
  // A transient memory fault aborts the reference before any mutation, so
  // retrying is safe; the PNC retried failed transactions the same way.
  for (;;) {
    try {
      return m_.swap_u32(a, v);
    } catch (const sim::MemoryFaultError&) {
      m_.charge(local_probe_);
    }
  }
}

std::uint32_t McsLock::read_retry(sim::PhysAddr a) {
  for (;;) {
    try {
      return m_.read<std::uint32_t>(a);
    } catch (const sim::MemoryFaultError&) {
      m_.charge(local_probe_);
    }
  }
}

void McsLock::acquire(std::uint32_t w) {
  // Reset my qnode.  Local plain writes: no other worker touches these
  // words except through the atomic link/handoff swaps below.
  m_.write<std::uint32_t>(next_[w], 0);
  m_.write<std::uint32_t>(locked_[w], 1);
  // Enqueue with one atomic swap on the tail — the only switch transaction
  // a contended acquire ever issues.
  const std::uint32_t pred = swap_retry(tail_, w + 1);
  if (pred != 0) {
    // Link into the predecessor, then spin on my *local* flag.  Every probe
    // below is a reference into this node's own module: the holder's node
    // never sees it.
    swap_retry(next_[pred - 1], w + 1);
    sim::Time wait = local_probe_;
    while (read_retry(locked_[w]) != 0) {
      ++local_spins_;
      ++m_.stats().lock_spins;
      m_.observe_spin(sim::chan_of(tail_));
      m_.charge(wait);
      if (probe_backoff_max_ != 0)
        wait = std::min(wait * 2, probe_backoff_max_);
    }
  }
  ++acquisitions_;
  ++m_.stats().lock_acquisitions;
  m_.observe_lock(sim::chan_of(tail_), true);
}

void McsLock::release(std::uint32_t w) {
  m_.observe_lock(sim::chan_of(tail_), false);
  std::uint32_t nxt = read_retry(next_[w]);
  if (nxt == 0) {
    // No linked successor.  If the tail still points at us the queue is
    // empty and the CAS frees the lock.
    for (;;) {
      try {
        if (m_.cas_u32(tail_, w + 1, 0) == w + 1) return;
        break;
      } catch (const sim::MemoryFaultError&) {
        m_.charge(local_probe_);
      }
    }
    // A successor swapped the tail but has not linked yet; it is at most
    // one reference away.
    while ((nxt = read_retry(next_[w])) == 0) {
      ++local_spins_;
      ++m_.stats().lock_spins;
      m_.observe_spin(sim::chan_of(tail_));
      m_.charge(local_probe_);
    }
  }
  // Hand the lock across the switch to the queue head: the release path's
  // single remote reference.
  swap_retry(locked_[nxt - 1], 0);
}

}  // namespace bfly::sync
