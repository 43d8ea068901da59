// The BBN Uniform System (Section 2.3 of the paper), rebuilt on Chrysalis.
//
// The Uniform System presents the illusion of one global shared memory plus
// cheap run-to-completion tasks.  At initialization a manager process is
// created on every participating processor; a global work queue (a
// microcoded dual queue) feeds them task descriptors.  Tasks inherit the
// globally shared memory, so granularity can be as small as a subroutine
// call.  Synchronization inside tasks is by spin lock only — tasks cannot
// block — which is exactly the property the paper criticizes.
//
// Faithful warts:
//   * the shared heap is capped at 16 MB (256 segments x 64 KB) on the
//     Butterfly-I profile;
//   * memory allocation is serialized behind one lock unless the parallel
//     (Ellis & Olson style) allocator is enabled — the Amdahl bench flips
//     this switch;
//   * data placement matters: alloc_on/scatter let programs spread data
//     across memories (the contention experiment) or concentrate it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "chrysalis/spinlock.hpp"
#include "sync/counter.hpp"

namespace bfly::us {

class UniformSystem;

/// Handed to every task when it runs on a manager.
struct TaskCtx {
  UniformSystem& us;
  chrys::Kernel& k;
  sim::Machine& m;
  std::uint32_t worker = 0;   ///< manager index, 0..processors-1
  sim::NodeId node = 0;       ///< node the task is executing on
  std::uint32_t arg = 0;      ///< per-task argument (e.g. an index)
};

using TaskFn = std::function<void(TaskCtx&)>;

/// Which outstanding-task counter the Uniform System builds.  The 1988
/// style is what the paper's software did; the scalable style is what the
/// Ultracomputer -> exascale line of work replaced it with (see src/sync).
enum class SyncStrategy : std::uint8_t {
  kCentral1988,  ///< one hot completion counter on node 0, as on the Butterfly
  kScalable,     ///< one cell per pool processor, polled by the waiter
};

struct UsConfig {
  /// Processors to run managers on (0 = every node of the machine).
  std::uint32_t processors = 0;
  /// Nodes to scatter shared memory across (0 = every node).  The paper's
  /// contention experiment spreads data over all 128 memories even when
  /// fewer processors compute.
  std::uint32_t memory_nodes = 0;
  /// Serial allocator (one global lock) vs parallel first-fit per node
  /// (Ellis & Olson).  Serial was "a dominant factor in many programs".
  bool parallel_allocator = true;
  /// Shared-heap ceiling; 16 MB on the Butterfly-I (the SAR limit).
  std::size_t heap_limit = 16u * 1024 * 1024;
  /// Create managers through a fan-out tree instead of serially (the
  /// "faster initialization" Rochester contributed to the BBN release).
  bool tree_init = false;
  /// The outstanding-task counter: the 1988 single hot cell, or
  /// per-processor cells with an aggregating read.
  SyncStrategy sync_strategy = SyncStrategy::kCentral1988;
};

class UniformSystem {
 public:
  UniformSystem(chrys::Kernel& k, UsConfig cfg = {});
  ~UniformSystem();

  UniformSystem(const UniformSystem&) = delete;
  UniformSystem& operator=(const UniformSystem&) = delete;

  chrys::Kernel& kernel() { return k_; }
  sim::Machine& machine() { return m_; }
  std::uint32_t processors() const { return procs_; }
  /// The outstanding-task counter (valid after initialize()).
  sync::IdleCounter& idle_counter() { return *idle_counter_; }

  /// Convenience: initialize, run `main` as a process on node 0, shut the
  /// managers down when it returns, and run the machine to completion.
  /// Returns total simulated time.
  sim::Time run_main(std::function<void()> main);

  /// Create the manager processes (callable from a Chrysalis process).
  void initialize();
  /// Stop all managers (drains the work queue first).
  void terminate();

  // --- Globally shared memory -------------------------------------------------

  /// Allocate from the shared heap, scattered round-robin over the memory
  /// nodes.  Throws ThrowSignal{kThrowOutOfMemory} past the 16 MB ceiling.
  sim::PhysAddr alloc_global(std::size_t bytes);
  /// Allocate on a specific node's memory.
  sim::PhysAddr alloc_on(sim::NodeId node, std::size_t bytes);
  void free_global(sim::PhysAddr p, std::size_t bytes);
  std::size_t heap_in_use() const { return heap_in_use_; }

  /// Allocate `count` rows of `row_bytes`, row i on memory node i mod M —
  /// the standard US matrix scatter.
  std::vector<sim::PhysAddr> scatter_rows(std::size_t count,
                                          std::size_t row_bytes);

  // --- Timed shared-memory access ----------------------------------------------

  template <typename T>
  T get(sim::PhysAddr a) {
    return m_.read<T>(a);
  }
  template <typename T>
  void put(sim::PhysAddr a, T v) {
    m_.write<T>(a, v);
  }
  std::uint32_t atomic_add(sim::PhysAddr a, std::uint32_t d) {
    return m_.fetch_add_u32(a, d);
  }
  /// The standard US locality idiom: copy a block of (possibly remote)
  /// shared memory into the worker's local memory, process it there, copy
  /// results back.  Worth 42% on the Hough transform (Section 4.1).
  void copy_to_local(void* dst, sim::PhysAddr src, std::size_t bytes) {
    m_.block_read(dst, src, bytes);
  }
  void copy_from_local(sim::PhysAddr dst, const void* src, std::size_t bytes) {
    m_.block_write(dst, src, bytes);
  }

  // --- Task generation -----------------------------------------------------------

  /// Enqueue one task.
  void gen_task(TaskFn fn, std::uint32_t arg = 0);
  /// GenTaskForEachIndex: one task per index in [lo, hi).
  void gen_on_index(std::uint32_t lo, std::uint32_t hi, TaskFn fn);
  /// Block the calling process until every generated task has completed.
  void wait_idle();
  /// gen_on_index + wait_idle.
  void for_all(std::uint32_t lo, std::uint32_t hi, TaskFn fn);

  std::uint64_t tasks_run() const { return tasks_run_; }
  /// Tasks that ended in an uncaught throw (trapped by the manager).
  std::uint64_t tasks_faulted() const { return tasks_faulted_; }
  /// Task descriptor slots ever allocated.  A slot is recycled when its
  /// task completes, so this is the peak number of tasks generated but not
  /// yet completed, not the number ever generated.
  std::size_t descriptor_slots() const { return table_.size(); }

  // --- Degraded-machine operation ---------------------------------------------
  // When a FaultPlan kills a node, the Uniform System drops that processor
  // from the pool and re-issues whatever task was in flight on it, so a
  // for_all still completes on the survivors — the paper's machines were
  // "rarely fully operational" and the pool simply shrank.

  /// Pool processors lost to node deaths.
  std::uint32_t nodes_lost() const { return nodes_lost_; }
  /// Tasks re-issued because their processor died mid-task (at-least-once
  /// execution: such tasks must tolerate a partial prior run).
  std::uint64_t tasks_reissued() const { return tasks_reissued_; }
  /// Managers still serving the work queue.
  std::uint32_t managers_alive() const { return managers_alive_; }

 private:
  // A task descriptor; its slot index (the tid) is what travels through
  // the work queue.  Every task of one generation (a gen_task call or a
  // gen_on_index range) shares one closure, released with its last task.
  struct TaskRec {
    std::shared_ptr<const TaskFn> fn;
    std::uint32_t arg = 0;
  };

  void manager_loop(std::uint32_t worker);
  void start_manager_tree(std::uint32_t worker);
  // Record a manager whose node was already dead when we tried to create
  // it (a kill that lands during initialization); no-op if the death
  // observer got there first.
  void mark_manager_dead(std::uint32_t worker);
  void enqueue_descriptor(const std::shared_ptr<const TaskFn>& fn,
                          std::uint32_t arg);
  // The crash observer, the one way a death reaches the Uniform System
  // (a loud kill, or a failure detector's broadcast of a silent one):
  // re-issue the node's in-flight task, apply any owed completion
  // decrement, rescue a stranded wait_idle.  No-op if already handled.
  void handle_node_death(sim::NodeId n);
  sim::PhysAddr allocate_with_lock(sim::NodeId node, std::size_t bytes);
  // Infrastructure accesses (completion counter, scatter cursor) retry a
  // transient memory fault under the default RetryPolicy: losing one would
  // wedge the whole system.  Dead-node errors propagate — those are
  // permanent.
  std::uint32_t counter_add(std::uint32_t d);
  std::uint32_t counter_read();

  chrys::Kernel& k_;
  sim::Machine& m_;
  UsConfig cfg_;
  std::uint32_t procs_ = 0;
  std::uint32_t mem_nodes_ = 0;
  bool initialized_ = false;

  chrys::Oid work_queue_ = chrys::kNoObject;
  // Descriptor slots, recycled through free_tids_ when a manager finishes
  // the task: the table is bounded by the work in flight.
  std::vector<TaskRec> table_;
  std::vector<std::uint32_t> free_tids_;
  std::uint64_t tasks_generated_ = 0;  // gen_task's trace argument
  std::vector<chrys::Oid> managers_;

  // Shared-heap bookkeeping.
  sim::PhysAddr serial_lock_cell_{};
  std::vector<sim::PhysAddr> node_lock_cell_;
  sim::PhysAddr rr_counter_{};  // round-robin scatter cursor (on node 0)
  std::size_t heap_in_use_ = 0;

  // Completion tracking: outstanding-task counter in shared memory (central
  // on node 0, or distributed per processor) plus — for the central,
  // exact() counter only — an event owned by the waiting process.
  std::unique_ptr<sync::IdleCounter> idle_counter_;
  chrys::Oid idle_event_ = chrys::kNoObject;
  chrys::Oid waiter_proc_ = chrys::kNoObject;
  std::uint64_t tasks_run_ = 0;
  std::uint64_t tasks_faulted_ = 0;

  // Fault recovery state (all host-side: zero cost on healthy runs).
  std::uint64_t crash_observer_ = 0;
  std::vector<std::uint32_t> inflight_;      // per worker: tid being run
  std::vector<std::uint8_t> decrementing_;   // per worker: task done, counter
                                             // decrement still in flight
  std::vector<std::uint8_t> manager_alive_;  // per worker
  std::uint32_t managers_alive_ = 0;
  std::uint32_t nodes_lost_ = 0;
  std::uint64_t tasks_reissued_ = 0;
};

}  // namespace bfly::us
