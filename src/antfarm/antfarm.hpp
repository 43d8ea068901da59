// Ant Farm — a lightweight process programming environment (Scott & Jones,
// BPR 21; Section 3.2 of the paper).
//
// Parallel graph algorithms "often call for one process per node of the
// graph"; none of the earlier Butterfly environments supported very large
// numbers of lightweight *blockable* threads.  Ant Farm encapsulates the
// microcoded communication primitives of Chrysalis with a Lynx-like
// coroutine scheduler: invocation of a blocking operation by a lightweight
// thread causes an implicit context switch to another runnable thread in
// the same Chrysalis process; when no thread is runnable, the scheduler
// blocks the whole process on a Chrysalis event.  Combined with a global
// heap and facilities for starting remote coroutines, threads communicate
// without regard to location.
//
// A Colony runs one runtime process per participating node; each runtime
// multiplexes any number of threads.  Threads address each other by
// ThreadId and exchange 64-bit datums through per-thread inboxes (larger
// payloads travel through the global heap).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chrysalis/crew.hpp"
#include "chrysalis/kernel.hpp"

namespace bfly::antfarm {

using ThreadId = std::uint64_t;

class Colony {
 public:
  /// Create the runtime processes on nodes [0, nodes_used) of the machine
  /// (0 = all).  Must be called from a Chrysalis process.
  Colony(chrys::Kernel& k, std::uint32_t nodes_used = 0);
  ~Colony();

  Colony(const Colony&) = delete;
  Colony& operator=(const Colony&) = delete;

  std::uint32_t nodes_used() const { return nodes_; }

  /// Start a thread on `node` (remote coroutine start).  Callable from the
  /// creator process or from any Ant Farm thread.
  ThreadId start(sim::NodeId node, std::function<void()> fn);

  /// The identity of the calling thread.
  ThreadId self();
  /// Node a thread lives on.
  static sim::NodeId node_of(ThreadId t) {
    return static_cast<sim::NodeId>(t >> 32);
  }

  /// Send a 64-bit datum to a thread's inbox, wherever it lives.
  void send(ThreadId to, std::uint64_t datum);
  /// Block the calling thread until a datum arrives (implicit context
  /// switch to another runnable thread meanwhile).
  std::uint64_t receive();
  /// Non-blocking probe.
  bool try_receive(std::uint64_t* out);
  /// Voluntarily switch to another runnable thread on this node.
  void yield();

  /// Global heap: allocate shared memory scattered round-robin over the
  /// colony's nodes (threads pass PhysAddrs through messages).
  sim::PhysAddr galloc(std::size_t bytes);

  /// From the creator process: wait until every thread has finished, then
  /// shut the runtimes down.
  void join();

  std::uint64_t threads_started() const { return threads_started_; }
  std::uint64_t messages() const { return messages_; }

 private:
  struct Thread {
    ThreadId id = 0;
    sim::Fiber* fiber = nullptr;
    std::function<void()> fn;
    std::deque<std::uint64_t> inbox;
    bool blocked_on_receive = false;
    bool finished = false;
  };
  struct Runtime {
    sim::NodeId node = 0;
    chrys::Oid wake_event = chrys::kNoObject;  // owned by the runtime proc
    chrys::Oid control_dq = chrys::kNoObject;  // cross-node commands
    sim::Fiber* sched_fiber = nullptr;
    std::deque<Thread*> runnable;
    std::vector<std::unique_ptr<Thread>> threads;
    std::uint32_t next_local = 0;
    bool stop = false;
  };
  // Cross-node command: start a thread or deliver a datum.
  struct Command {
    enum Kind { kStart, kSend, kStop } kind = kSend;
    ThreadId target = 0;
    std::uint64_t datum = 0;
    std::function<void()> fn;  // kStart
  };

  void scheduler_loop(Runtime& rt);
  void dispatch(Runtime& rt, Thread* t);
  void thread_trampoline(Runtime& rt, Thread* t);
  /// Switch from a running thread back to its runtime's scheduler.
  void back_to_scheduler(Runtime& rt);
  void make_runnable(Runtime& rt, Thread* t);
  void deliver_local(Runtime& rt, Thread* t, std::uint64_t datum);
  void post_command(Runtime& rt, Command cmd);
  Runtime& runtime_of_current();
  Thread* current_thread();

  chrys::Kernel& k_;
  sim::Machine& m_;
  chrys::Crew crew_;  // member n is node n's runtime process
  std::uint32_t nodes_ = 0;
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::unordered_map<sim::Fiber*, std::pair<Runtime*, Thread*>> by_fiber_;
  std::deque<Command> commands_;      // host-side bodies for control dqs
  std::vector<std::uint32_t> command_free_;
  std::uint64_t live_threads_ = 0;    // colony-wide
  std::uint64_t threads_started_ = 0;
  std::uint64_t messages_ = 0;
  std::uint32_t heap_cursor_ = 0;
};

}  // namespace bfly::antfarm
