// SMP: Structured Message Passing (Section 3.2; LeBlanc, Gafter & Ohkami,
// BPR 8).
//
// SMP supports the dynamic construction of process families: hierarchical
// collections of heavyweight processes communicating through asynchronous
// messages, connected according to an arbitrary static topology.  Processes
// are allocated to processors by a fixed algorithm (base_node + index mod
// nodes) — the paper notes this "can lead to an imbalance in processor
// load".  Message buffers must be mapped into the sender's scarce segmented
// address space; the optional SAR cache delays unmaps to amortize that
// millisecond-class cost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "chrysalis/crew.hpp"
#include "chrysalis/kernel.hpp"
#include "smp/sar_cache.hpp"
#include "smp/topology.hpp"

namespace bfly::smp {

class Family;

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves new elements indeterminate instead of zeroing them
/// (construction with arguments falls back to std::construct_at).
/// Only for buffers that are overwritten in full before they are read.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

struct Message {
  std::uint32_t from = 0;
  std::uint32_t tag = 0;
  /// Filled in full by the receive's block_read before the Message is
  /// handed out, so the allocator's skipped zero-fill is never visible.
  std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>> payload;

  template <typename T>
  T as() const {
    T v{};
    std::memcpy(&v, payload.data(), std::min(sizeof(T), payload.size()));
    return v;
  }
};

struct FamilyOptions {
  /// Member i runs on node (base_node + i) mod nodes.
  sim::NodeId base_node = 0;
  /// Channel buffers each member may keep mapped (0 = no SAR cache: every
  /// message pays map + unmap).  The default is the realistic segment
  /// budget: 256 SARs minus code/stack/heap segments.  A family member
  /// with more live channels than this thrashes the cache — the paper's
  /// "must map its buffers in and out dynamically".
  std::uint32_t sar_cache_capacity = 200;
};

/// A member's view of its family; passed to the member body and valid for
/// the body's lifetime.  All methods must be called from the member's own
/// process.
class Member {
 public:
  std::uint32_t index() const { return index_; }
  std::uint32_t size() const;
  sim::NodeId node() const { return node_; }
  Family& family() { return fam_; }

  /// Asynchronous send to a topology neighbor.  Throws
  /// ThrowSignal{kThrowNotConnected} otherwise.
  void send(std::uint32_t dest, std::uint32_t tag, const void* data,
            std::size_t len);
  template <typename T>
  void send_value(std::uint32_t dest, std::uint32_t tag, const T& v) {
    send(dest, tag, &v, sizeof(T));
  }

  /// Blocking receive (any neighbor, FIFO arrival order).
  Message receive();
  bool try_receive(Message* out);

  const std::vector<std::uint32_t>& neighbors() const;
  /// Heap-order helpers for tree-shaped families.
  std::uint32_t parent(std::uint32_t arity = 2) const {
    return Topology::tree_parent(index_, arity);
  }
  std::vector<std::uint32_t> children(std::uint32_t arity = 2) const;

  SarCache& sar_cache() { return cache_; }

 private:
  friend class Family;
  Member(Family& f, std::uint32_t index, sim::NodeId node,
         std::uint32_t cache_capacity);
  /// Turn mailbox record `id` into a Message: charge the receive, map the
  /// channel buffer and pull the body to local memory.  A fault in the
  /// block read propagates, and no Message is returned.
  Message deliver(std::uint32_t id);
  /// SAR cache slot of the channel a message from `from` arrives on.  A
  /// send to peer j uses slot j; a receive from j uses size()+j, except
  /// that the self-channel is one buffer and so one slot both ways.
  std::uint32_t recv_slot(std::uint32_t from) const {
    return from == index_ ? from : size() + from;
  }

  Family& fam_;
  std::uint32_t index_;
  sim::NodeId node_;
  chrys::Oid mailbox_ = chrys::kNoObject;
  SarCache cache_;
};

using MemberBody = std::function<void(Member&)>;

class Family {
 public:
  /// Create the family; must be called from a Chrysalis process (the
  /// creator pays the per-process creation costs serially).
  Family(chrys::Kernel& k, Topology topo, MemberBody body,
         FamilyOptions opt = {});

  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  std::uint32_t size() const { return topo_.size(); }
  const Topology& topology() const { return topo_; }
  chrys::Kernel& kernel() { return k_; }

  /// Block the creator until every member has ended: its body returned or
  /// threw, or it was lost to a dead or cut-off node (chrys::Crew).
  void join() { crew_.join(); }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Member;
  struct MsgRec {
    std::uint32_t from = 0;
    std::uint32_t tag = 0;
    sim::PhysAddr buf{};
    std::uint32_t len = 0;
    bool in_use = false;
  };

  std::uint32_t put_record(MsgRec rec);
  MsgRec take_record(std::uint32_t id);

  chrys::Kernel& k_;
  sim::Machine& m_;
  Topology topo_;
  FamilyOptions opt_;
  chrys::Crew crew_;
  std::vector<std::unique_ptr<Member>> members_;
  std::deque<MsgRec> records_;
  std::vector<std::uint32_t> record_free_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace bfly::smp
