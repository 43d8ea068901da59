// The Chrysalis operating system (Section 2.2 of the paper), rebuilt on the
// simulated Butterfly.
//
// Chrysalis is a protected subroutine library: processes are heavyweight,
// bound to one node, scheduled non-preemptively per node; memory objects
// come in 16 standard sizes and are mapped into a process's segmented
// address space through SARs (a scarce per-node resource handed out in
// buddy-system blocks); events and dual queues are microcoded
// synchronization primitives costing tens of microseconds; catch/throw is
// the exception mechanism (~70 us per protected block).  The object model
// is a uniform ownership hierarchy with reference-counted reclamation — and
// the "give it to the system" escape hatch that makes Chrysalis leak
// storage, which we model observably.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "chrysalis/small_fifo.hpp"
#include "chrysalis/types.hpp"
#include "sim/machine.hpp"

namespace bfly::chrys {

class Kernel;

/// Thrown by Kernel::throw_err and caught by Kernel::catch_block — the
/// MacLISP-style catch/throw of Chrysalis.
struct ThrowSignal {
  int code;
  std::uint32_t datum;
};

/// A Chrysalis process: a heavyweight entity with its own segmented address
/// space, bound to one node for its whole life (processes do not migrate).
class Process {
 public:
  enum class State { kReady, kRunning, kBlocked, kExited };

  Oid oid() const { return oid_; }
  sim::NodeId node() const { return node_; }
  State state() const { return state_; }
  bool faulted() const { return faulted_; }
  /// True when the process died with its node (a FaultPlan kill).
  bool killed() const { return killed_; }
  const std::string& name() const { return name_; }

  /// Number of segment slots (SARs) this process owns.
  std::uint32_t sar_block() const { return sar_block_; }
  /// While blocked: the event or dual queue this process is waiting on
  /// (kNoObject otherwise).  Moviola uses this for its deadlock view.
  Oid waiting_on() const { return waiting_on_; }

 private:
  friend class Kernel;
  const Kernel* kernel_ = nullptr;  // two kernels may share one machine
  Oid oid_ = kNoObject;
  sim::NodeId node_ = 0;
  State state_ = State::kReady;
  bool faulted_ = false;
  std::string name_;
  sim::Fiber* fiber_ = nullptr;
  bool wakeup_pending_ = false;  // post arrived while deciding to block
  bool killed_ = false;          // node died under this process
  bool timed_out_ = false;       // last timed wait expired without data
  std::uint64_t wait_seq_ = 0;   // blocking-wait generation (stale-timer guard)
  std::uint32_t explore_prio_ = 0;  // PCT priority (schedule exploration)
  std::uint32_t partition_ = 0xffffffffu;  // kWholeMachine
  std::uint32_t sar_block_ = 0;
  std::vector<Oid> segments_;      // segment index -> memory object (or 0)
  std::uint32_t wait_datum_ = 0;   // datum delivered by event/dq post
  Oid waiting_on_ = kNoObject;     // object this process is blocked on
  // Dual queue whose datum is in flight to this process: delivered by an
  // enqueuer but not yet consumed by the dequeue call.  If the process dies
  // inside that window the kernel re-queues the datum (at-least-once).
  Oid dq_handoff_from_ = kNoObject;
};

class Kernel {
 public:
  explicit Kernel(sim::Machine& m);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Machine& machine() { return m_; }
  sim::Time now() const { return m_.now(); }

  // --- Processes -------------------------------------------------------------

  /// Create a process on `node` whose body is `main`.  `max_segments` sizes
  /// the SAR block (rounded up to 8/16/32/64/128/256).  Charged to the
  /// calling process: milliseconds of local work plus a serialized critical
  /// section on the global process-template resource — the serialization
  /// the Crowd Control package exists to mitigate.
  Oid create_process(sim::NodeId node, std::function<void()> main,
                     std::string name = {}, std::uint32_t max_segments = 32);

  /// The process of this kernel running on the calling fiber.
  Process& self();
  bool on_process() const;

  /// Voluntarily give up the CPU to another ready process on this node.
  void yield();
  /// Block the calling process for `ns` of simulated time (CPU released).
  void delay(sim::Time ns);

  /// Number of processes that have not exited.
  std::size_t live_processes() const { return live_processes_; }

  /// Processes that died with their node.
  std::size_t killed_processes() const { return killed_processes_; }
  /// Snapshot of blocked processes: (name, oid, object waited on), in oid
  /// (creation) order.
  struct BlockedInfo {
    std::string name;
    Oid process;
    Oid waiting_on;
  };
  std::vector<BlockedInfo> blocked_processes() const;
  /// One line per node with a non-idle scheduler: the running process and
  /// the ready queue, in dispatch order.  Diagnostic companion to
  /// blocked_processes(): a wedged run is explained by who is blocked plus
  /// who is ready-but-never-dispatched.
  std::string sched_snapshot() const;
  /// The process of this kernel running `f`'s code, or kNoObject for a
  /// non-process fiber or an exited process (moviola maps the fibers it
  /// watches back to kernel objects).  `f` must be live: the answer is read
  /// from the fiber itself.
  Oid process_of(sim::Fiber* f) const;

  // --- Schedule exploration (PCT-style; see src/moviola) ---------------------
  // One seed = one deterministic alternative schedule.  Every process gets
  // a random priority from a dedicated PRNG; the per-node dispatcher runs
  // the highest-priority ready process (instead of FIFO) and a dual queue
  // hands its datum to the highest-priority waiter (instead of the oldest);
  // at `change_points` pre-drawn dispatch steps the chosen process's
  // priority is re-drawn, so a single unlucky priority assignment cannot
  // hide bugs that need a mid-run inversion (the PCT insight: most
  // order-dependent bugs have small depth d, and k = d-1 change points
  // suffice).  Exploration never invents schedules the kernel could not
  // produce — it only re-orders choices that were already untimed ties —
  // and it draws from its own PRNG, so the machine's seeded behaviour and
  // Instant Replay recording are unaffected.  Off (the default) leaves
  // dispatch byte-identical to a kernel built before this hook existed.

  /// Enable perturbed dispatch for this kernel's whole lifetime.
  /// `horizon_steps` spreads the change points over the expected number of
  /// dispatch decisions (they are drawn uniformly below it).
  void set_schedule_exploration(std::uint64_t seed,
                                std::uint32_t change_points = 8,
                                std::uint64_t horizon_steps = 1 << 14);
  bool exploring() const { return explore_; }
  /// Dispatch decisions taken so far under exploration (diagnostics).
  std::uint64_t dispatch_steps() const { return dispatch_steps_; }

  // --- Software partitioning (Section 3.3: "a local facility for software
  // partitioning (to subdivide a Butterfly into smaller virtual machines)
  // was brought up prior to the release of the BBN version") -----------------

  using PartitionId = std::uint32_t;
  static constexpr PartitionId kWholeMachine = 0xffffffffu;

  /// Carve a virtual machine out of the given nodes.  A process created
  /// inside a partition may only create processes on that partition's
  /// nodes (ThrowSignal{kThrowBadObject} otherwise) — the fences between
  /// users sharing one Butterfly.
  PartitionId create_partition(std::vector<sim::NodeId> nodes);
  const std::vector<sim::NodeId>& partition_nodes(PartitionId p) const;
  /// Create the root process of a partition on its index-th node.
  Oid enter_partition(PartitionId p, std::uint32_t index,
                      std::function<void()> main, std::string name = {});
  /// Partition of the calling process (kWholeMachine outside any).
  PartitionId current_partition();
  /// SARs still unallocated on a node.
  std::uint32_t free_sars(sim::NodeId node) const { return sars_free_[node]; }

  // --- Memory objects ---------------------------------------------------------

  /// Allocate a memory object of at least `bytes` on `node`.  Rounded up to
  /// one of the 16 standard sizes; the fragment at the end is inaccessible
  /// (tracked in wasted_bytes()).  Owned by the calling process (or the
  /// system when called off-process).
  Oid make_memory_object(sim::NodeId node, std::size_t bytes);

  /// The physical base/size of a memory object (for layers that bypass the
  /// segmented address space, as tuned Butterfly code did via the PNC).
  sim::PhysAddr memobj_base(Oid mo) const;
  std::size_t memobj_size(Oid mo) const;
  sim::NodeId memobj_node(Oid mo) const;

  // --- Object model ------------------------------------------------------------

  /// Delete an object; subsidiary objects (children in the ownership
  /// hierarchy) are reclaimed recursively.
  void delete_object(Oid oid);
  /// Transfer ownership to "the system": the object will survive its
  /// creator's deletion.  This is how Chrysalis programs leak storage.
  void give_to_system(Oid oid);
  bool object_alive(Oid oid) const;
  ObjKind object_kind(Oid oid) const;

  /// Bytes held by live memory objects.
  std::size_t live_bytes() const { return live_bytes_; }
  /// Bytes lost to standard-size rounding.
  std::size_t wasted_bytes() const { return wasted_bytes_; }
  /// Bytes in system-owned memory objects whose creating process has exited:
  /// storage nothing will ever reclaim.
  std::size_t leaked_bytes() const { return leaked_bytes_; }

  // --- Address space (SAR management) ------------------------------------------

  /// Map a memory object into the calling process's address space; returns
  /// the segment number.  Costs over 1 ms (Section 2.1).
  std::uint32_t map_object(Oid mo);
  void unmap_segment(std::uint32_t segment);

  /// Timed virtual-memory access through the calling process's segments.
  template <typename T>
  T vread(VirtAddr va) {
    return m_.read<T>(translate(va, sizeof(T)));
  }
  template <typename T>
  void vwrite(VirtAddr va, T v) {
    m_.write<T>(translate(va, sizeof(T)), v);
  }
  std::uint32_t v_fetch_add(VirtAddr va, std::uint32_t delta) {
    return m_.fetch_add_u32(translate(va, 4), delta);
  }
  std::uint32_t v_test_and_set(VirtAddr va) {
    return m_.test_and_set(translate(va, 4));
  }

  /// Translate a virtual address in the calling process; throws
  /// ThrowSignal{kThrowSegmentFault} on unmapped segment / bad offset.
  sim::PhysAddr translate(VirtAddr va, std::size_t bytes);

  // --- Events -------------------------------------------------------------------

  /// An event is a binary semaphore on which only `owner` can wait.
  Oid make_event(Oid owner_process = kNoObject);
  /// Post with a 32-bit datum.  A second post before the wait overwrites
  /// the first (binary semantics).
  void event_post(Oid ev, std::uint32_t datum = 0);
  /// Wait (owner only); returns the posted datum.
  std::uint32_t event_wait(Oid ev);

  // --- Dual queues ----------------------------------------------------------------

  /// A dual queue holds either data from posts or waiting processes, never
  /// both.  capacity 0 = unbounded.
  Oid make_dual_queue(std::size_t capacity = 0);
  void dq_enqueue(Oid dq, std::uint32_t datum);
  /// Enqueue without charging simulated time even from process context.
  /// For host-side bookkeeping tokens (EOF sentinels, recovery completions)
  /// that must not perturb the event stream of a healthy run.
  void dq_enqueue_uncharged(Oid dq, std::uint32_t datum);
  std::uint32_t dq_dequeue(Oid dq);
  bool dq_try_dequeue(Oid dq, std::uint32_t* out);
  /// Uncharged, non-blocking pop; recovery code draining a dead process's
  /// queue must not bill simulated time to anyone.
  bool dq_try_dequeue_uncharged(Oid dq, std::uint32_t* out);
  /// Dequeue with a deadline: returns false if `timeout` elapses first.
  /// The microcoded queues had no such operation; recovery code needs one,
  /// so it is built from a timer event plus a wait-generation counter.
  /// std::nullopt waits without a timer: that is dq_dequeue.
  bool dq_dequeue_for(Oid dq, std::optional<sim::Time> timeout,
                      std::uint32_t* out);
  std::size_t dq_depth(Oid dq) const;

  // --- Catch / throw ---------------------------------------------------------------

  /// Run `body` in a protected block.  Returns 0 on normal completion or
  /// the thrown code.  Entering and leaving costs ~70 us total, which is
  /// why tuned programs keep catch blocks off their critical path.
  int catch_block(const std::function<void()>& body,
                  std::uint32_t* datum_out = nullptr);
  [[noreturn]] void throw_err(int code, std::uint32_t datum = 0);

 private:
  struct EventObj {
    Oid owner = kNoObject;
    bool pending = false;
    bool waiting = false;
    std::uint32_t datum = 0;
  };
  // Built in place in its ObjRec (make_dual_queue): a short queue costs no
  // allocation beyond the record.
  struct DualQueueObj {
    std::size_t capacity = 0;
    SmallFifo<std::uint32_t, 4> data;
    SmallFifo<Oid, 4> waiters;
  };
  struct MemObj {
    sim::PhysAddr base;
    std::size_t size = 0;       // standard (rounded) size
    std::size_t requested = 0;  // what the caller asked for
  };
  struct ObjRec {
    ObjKind kind;
    Oid owner = kNoObject;       // owning object
    Oid creator = kNoObject;     // process that created it (leak accounting)
    bool system_owned = false;
    std::vector<Oid> children;
    std::variant<std::monostate, EventObj, DualQueueObj, MemObj,
                 std::unique_ptr<Process>>
        u;
  };
  struct NodeSched {
    Process* current = nullptr;
    std::deque<Process*> ready;
  };

  /// The live object `oid`, or nullptr.
  ObjRec* find(Oid oid) const {
    return oid < objects_.size() ? objects_[oid].get() : nullptr;
  }
  ObjRec& rec(Oid oid);
  const ObjRec& rec(Oid oid) const;
  /// The process of this kernel on fiber `f`, or nullptr.
  Process* process_on(const sim::Fiber* f) const {
    if (f == nullptr) return nullptr;
    auto* p = static_cast<Process*>(f->owner());
    return p != nullptr && p->kernel_ == this ? p : nullptr;
  }
  Process& proc(Oid oid);
  Oid new_object(ObjKind kind, Oid owner);
  void adopt(Oid parent, Oid child);
  void orphan(Oid child);

  void make_ready(Process& p);
  void dispatch_next(sim::NodeId node);
  /// Highest-priority live waiter of `q` (exploration), or the oldest
  /// (FIFO) when exploration is off; kNoObject when none is live.  Pops the
  /// chosen waiter from q.waiters.
  Oid pick_waiter(DualQueueObj& q);
  /// Re-draw `p`'s priority if the current dispatch step is a change point.
  void maybe_change_priority(Process& p);
  /// Block the calling process; returns when made ready and dispatched.
  void block_self();
  void exit_self();
  /// Exit bookkeeping for a process that died with its node: no timed
  /// operations, no object reclamation (the crash ran nothing gracefully).
  void kill_exit(Process& p);
  void handle_node_death(sim::NodeId n);
  /// Uncharged delivery used by recovery paths: hand `datum` to a live
  /// waiter or put it back at the head of the queue.
  void deliver_or_queue(Oid dq, std::uint32_t datum);
  /// Give `datum` to a live waiter of `q` and make it ready; false when
  /// nobody waits.  The one hand-off of every dual-queue post.
  bool hand_to_waiter(Oid dq, DualQueueObj& q, std::uint32_t datum);
  void charge_if_on_fiber(sim::Time ns);

  static std::size_t standard_size(std::size_t bytes);
  static std::uint32_t sar_block_for(std::uint32_t max_segments);

  sim::Machine& m_;
  // Indexed by oid.  Oids are dense from 1 and never reused, so slot 0 and
  // the slot of every deleted object stay null.  Records live behind
  // pointers: callers hold ObjRec references across object creation.
  std::vector<std::unique_ptr<ObjRec>> objects_;
  // System-owned memory objects whose creator may still exit: the only
  // candidates for leak accounting at exit_self.
  std::vector<Oid> system_memory_;
  std::vector<NodeSched> sched_;
  std::vector<std::uint32_t> sars_free_;
  sim::Time template_busy_until_ = 0;  // serialized process-template resource
  // Schedule exploration (all state untouched when explore_ is false).
  bool explore_ = false;
  sim::Rng explore_rng_{0};
  std::vector<std::uint64_t> change_steps_;  // sorted dispatch-step indices
  std::size_t change_cursor_ = 0;
  std::uint64_t dispatch_steps_ = 0;
  std::vector<std::vector<sim::NodeId>> partitions_;
  std::size_t live_processes_ = 0;
  std::size_t killed_processes_ = 0;
  std::uint64_t death_observer_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t wasted_bytes_ = 0;
  std::size_t leaked_bytes_ = 0;
};

}  // namespace bfly::chrys
