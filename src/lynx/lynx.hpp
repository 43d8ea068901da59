// Lynx — the distributed programming language's run-time model (Scott,
// BPR 7 / IEEE TSE '87; Section 3.2 of the paper).
//
// Lynx supports heavyweight processes containing lightweight threads, with
// a remote-procedure-call model of communication between threads.  A
// message dispatcher and thread scheduler inside each process provide the
// performance of asynchronous message passing between heavyweight
// processes while presenting blocking RPC to the programmer.  Connections
// ("links") between processes can be created, destroyed, and moved
// dynamically, giving complete run-time control over the communication
// topology — without compile-time knowledge of communication partners.
//
// This is the run-time library, not the language: bodies are C++ closures,
// requests and replies are byte vectors (use the typed helpers), and links
// are moved with an explicit call rather than by enclosure in a message.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chrysalis/crew.hpp"
#include "chrysalis/kernel.hpp"

namespace bfly::lynx {

class Runtime;
class Proc;

/// One end of a duplex link.  End 2k and 2k+1 are opposite ends of link k.
struct End {
  std::uint32_t id = 0xffffffffu;
  End opposite() const { return End{id ^ 1u}; }
  bool valid() const { return id != 0xffffffffu; }
  bool operator==(const End&) const = default;
};

/// An incoming RPC request, as seen by the server thread.
struct Request {
  End on;                            ///< the end it arrived through
  std::vector<std::uint8_t> data;
  std::uint64_t token = 0;           ///< reply routing token

  template <typename T>
  T as() const {
    T v{};
    std::memcpy(&v, data.data(), std::min(sizeof(T), data.size()));
    return v;
  }
};

using ProcBody = std::function<void(Proc&)>;

/// A Lynx process's view of itself; valid inside its body and threads.
class Proc {
 public:
  std::uint32_t index() const { return index_; }
  sim::NodeId node() const { return node_; }
  Runtime& runtime() { return rt_; }

  /// Start another lightweight thread in this process.
  void fork(std::function<void()> fn);

  /// Blocking RPC through a link end this process holds: sends `data`,
  /// suspends the calling thread (others keep running), returns the reply.
  std::vector<std::uint8_t> call(End e, const void* data, std::size_t n);
  template <typename T, typename R>
  R call_value(End e, const T& req) {
    const auto bytes = call(e, &req, sizeof(T));
    R r{};
    std::memcpy(&r, bytes.data(), std::min(sizeof(R), bytes.size()));
    return r;
  }

  /// Block until a request arrives on any end this process holds.
  Request accept();
  /// Answer a request.
  void reply(const Request& req, const void* data, std::size_t n);
  template <typename T>
  void reply_value(const Request& req, const T& v) {
    reply(req, &v, sizeof(T));
  }

 private:
  friend class Runtime;
  Proc(Runtime& rt, std::uint32_t index, sim::NodeId node)
      : rt_(rt), index_(index), node_(node) {}

  Runtime& rt_;
  std::uint32_t index_;
  sim::NodeId node_;
};

class Runtime {
 public:
  explicit Runtime(chrys::Kernel& k);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a Lynx process on `node`.  Returns its index.  Processes
  /// spawned before start() is called are held until start(), so the
  /// creator can wire up links first; processes spawned afterwards (e.g.
  /// from a running Lynx thread) launch immediately.
  std::uint32_t spawn(sim::NodeId node, ProcBody body);

  /// Launch all held processes.  join() calls this implicitly.
  void start();

  /// Create a fresh link; gives end A to process `a` and end B to `b`.
  End connect(std::uint32_t a, std::uint32_t b);
  /// Move an end to another process (Lynx moves ends by enclosing them in
  /// messages; the cost model is the same).
  void move_end(End e, std::uint32_t to_process);
  /// Destroy a link; outstanding calls on it fail with a throw.
  void destroy_link(End e);
  std::uint32_t holder_of(End e) const;

  /// Wait (from the creating Chrysalis process) for all Lynx processes to
  /// finish their bodies, or to be lost with their node (chrys::Crew).
  void join();

  std::uint64_t calls_completed() const { return calls_completed_; }
  /// Current simulated time (convenience for timing RPCs in clients).
  sim::Time kernel_now() const { return m_.now(); }

 private:
  friend class Proc;
  struct Thread {
    sim::Fiber* fiber = nullptr;
    std::function<void()> fn;
    bool finished = false;
    // RPC state
    std::vector<std::uint8_t> reply_data;
    bool reply_ready = false;
    Request pending;  // delivered request, once request_ready
    bool request_ready = false;
  };
  struct ProcState {
    std::unique_ptr<Proc> view;
    sim::NodeId node = 0;
    chrys::Oid wake_event = chrys::kNoObject;
    chrys::Oid inbox = chrys::kNoObject;  // dual queue of wire-message ids
    sim::Fiber* sched_fiber = nullptr;
    std::vector<std::unique_ptr<Thread>> threads;
    std::deque<Thread*> runnable;
    std::deque<Request> backlog;          // requests with no acceptor yet
    std::deque<Thread*> acceptors;        // threads blocked in accept()
  };
  struct Wire {  // a message on the wire between processes
    enum Kind { kRequest, kReply } kind = kRequest;
    End to_end;                  // request: destination end
    std::uint64_t token = 0;     // identifies the calling thread
    std::vector<std::uint8_t> data;
  };

  void launch(std::uint32_t index);
  void scheduler_loop(ProcState& ps);
  void dispatch(ProcState& ps, Thread* t);
  void back_to_scheduler(ProcState& ps);
  void post_wire(std::uint32_t proc, Wire w);
  ProcState& state_of_current();
  Thread* current_thread();
  std::uint64_t token_for(std::uint32_t proc, Thread* t);

  chrys::Kernel& k_;
  sim::Machine& m_;
  chrys::Crew crew_;  // one member per process
  std::vector<std::unique_ptr<ProcState>> procs_;
  std::unordered_map<sim::Fiber*, std::pair<ProcState*, Thread*>> by_fiber_;
  std::vector<std::uint32_t> end_holder_;  // end id -> process index
  std::vector<bool> link_dead_;
  std::deque<Wire> wires_;
  std::vector<std::uint32_t> wire_free_;
  std::unordered_map<std::uint64_t, std::pair<ProcState*, Thread*>> tokens_;
  std::uint64_t next_token_ = 1;
  std::uint64_t calls_completed_ = 0;
  bool launched_ = false;
  std::vector<std::uint32_t> held_;  // spawned before start()
};

}  // namespace bfly::lynx
