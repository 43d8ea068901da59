#include "lynx/lynx.hpp"

#include <cassert>

namespace bfly::lynx {

namespace {
// Calibrated so a null RPC round trip lands near 2 ms, matching the
// Scott & Cox measurements of Lynx message overhead on the Butterfly-I.
constexpr sim::Time kMarshalCost = 350 * sim::kMicrosecond;
constexpr sim::Time kDispatchCost = 150 * sim::kMicrosecond;
constexpr sim::Time kMoveEndCost = 500 * sim::kMicrosecond;
}  // namespace

Runtime::Runtime(chrys::Kernel& k) : k_(k), m_(k.machine()), crew_(k) {}

Runtime::~Runtime() = default;

std::uint32_t Runtime::spawn(sim::NodeId node, ProcBody body) {
  const auto index = static_cast<std::uint32_t>(procs_.size());
  auto ps = std::make_unique<ProcState>();
  ps->node = node;
  ps->view.reset(new Proc(*this, index, node));
  ps->inbox = k_.make_dual_queue();
  ProcState* p = ps.get();
  procs_.push_back(std::move(ps));

  // The body is the process's initial thread.
  auto t0 = std::make_unique<Thread>();
  t0->fn = [p, body] { body(*p->view); };
  p->threads.push_back(std::move(t0));
  p->runnable.push_back(p->threads.back().get());

  if (launched_)
    launch(index);
  else
    held_.push_back(index);
  return index;
}

void Runtime::launch(std::uint32_t index) {
  ProcState* p = procs_[index].get();
  crew_.start(
      p->node,
      [this, p] {
        p->wake_event = k_.make_event();
        p->sched_fiber = sim::Fiber::current();
        scheduler_loop(*p);
      },
      "lynx-p" + std::to_string(index));
}

void Runtime::start() {
  if (launched_) return;
  launched_ = true;
  for (std::uint32_t i : held_) launch(i);
  held_.clear();
}

// --- Scheduler -----------------------------------------------------------

void Runtime::scheduler_loop(ProcState& ps) {
  auto live_threads = [&ps] {
    std::size_t n = 0;
    for (const auto& t : ps.threads)
      if (!t->finished) ++n;
    return n;
  };
  while (true) {
    // Drain the wire.
    std::uint32_t wid = 0;
    while (k_.dq_try_dequeue(ps.inbox, &wid)) {
      Wire w = std::move(wires_[wid]);
      wire_free_.push_back(wid);
      m_.charge(kDispatchCost);
      if (w.kind == Wire::kRequest) {
        Request req;
        req.on = w.to_end;
        req.token = w.token;
        req.data = std::move(w.data);
        if (!ps.acceptors.empty()) {
          Thread* t = ps.acceptors.front();
          ps.acceptors.pop_front();
          t->pending = std::move(req);
          t->request_ready = true;
          ps.runnable.push_back(t);
        } else {
          ps.backlog.push_back(std::move(req));
        }
      } else {  // kReply
        auto it = tokens_.find(w.token);
        if (it != tokens_.end()) {
          Thread* t = it->second.second;
          tokens_.erase(it);
          t->reply_data = std::move(w.data);
          t->reply_ready = true;
          ps.runnable.push_back(t);
          ++calls_completed_;
        }
      }
    }
    if (!ps.runnable.empty()) {
      Thread* t = ps.runnable.front();
      ps.runnable.pop_front();
      dispatch(ps, t);
      continue;
    }
    if (live_threads() == 0) break;  // process terminates with its threads
    (void)k_.event_wait(ps.wake_event);
  }
}

void Runtime::dispatch(ProcState& ps, Thread* t) {
  m_.charge(m_.config().thread_switch_ns);
  if (t->fiber == nullptr) {
    t->fiber = m_.spawn_parked(ps.node, [this, &ps, t] {
      // A throw that escapes a thread kills the thread, not the process
      // (Chrysalis-style unwind to the outermost handler).
      try {
        t->fn();
      } catch (const chrys::ThrowSignal&) {
      }
      t->finished = true;
      m_.wakeup(ps.sched_fiber);
    });
    by_fiber_[t->fiber] = {&ps, t};
  }
  m_.wakeup(t->fiber);
  m_.park();
  if (t->finished) by_fiber_.erase(t->fiber);
}

void Runtime::back_to_scheduler(ProcState& ps) {
  m_.wakeup(ps.sched_fiber);
  m_.park();
}

Runtime::ProcState& Runtime::state_of_current() {
  auto it = by_fiber_.find(sim::Fiber::current());
  if (it == by_fiber_.end())
    throw sim::SimError("not called from a Lynx thread");
  return *it->second.first;
}

Runtime::Thread* Runtime::current_thread() {
  auto it = by_fiber_.find(sim::Fiber::current());
  return it == by_fiber_.end() ? nullptr : it->second.second;
}

void Runtime::post_wire(std::uint32_t proc, Wire w) {
  ProcState& target = *procs_[proc];
  // Data travels through a buffer on the receiver's node (block transfer).
  if (!w.data.empty()) {
    const sim::PhysAddr buf = m_.alloc(target.node, w.data.size());
    m_.block_write(buf, w.data.data(), w.data.size());
    m_.free(buf, w.data.size());  // modelled transfer; payload rides host-side
  }
  std::uint32_t wid;
  if (!wire_free_.empty()) {
    wid = wire_free_.back();
    wire_free_.pop_back();
    wires_[wid] = std::move(w);
  } else {
    wires_.push_back(std::move(w));
    wid = static_cast<std::uint32_t>(wires_.size() - 1);
  }
  k_.dq_enqueue(target.inbox, wid);
  // Ring the doorbell unconditionally: posting to a non-waiting scheduler
  // just leaves the event pending (skipping the post for a busy-looking
  // scheduler would race and lose the wakeup).
  if (target.wake_event != chrys::kNoObject)
    k_.event_post(target.wake_event, 0);
}

// --- Links ------------------------------------------------------------------

End Runtime::connect(std::uint32_t a, std::uint32_t b) {
  const auto link = static_cast<std::uint32_t>(end_holder_.size() / 2);
  end_holder_.push_back(a);
  end_holder_.push_back(b);
  link_dead_.push_back(false);
  if (sim::Fiber::current() != nullptr) m_.charge(300 * sim::kMicrosecond);
  return End{2 * link};
}

void Runtime::move_end(End e, std::uint32_t to_process) {
  if (!e.valid() || e.id >= end_holder_.size())
    throw chrys::ThrowSignal{chrys::kThrowBadObject, e.id};
  end_holder_[e.id] = to_process;
  if (sim::Fiber::current() != nullptr) m_.charge(kMoveEndCost);
}

void Runtime::destroy_link(End e) {
  if (!e.valid() || e.id >= end_holder_.size())
    throw chrys::ThrowSignal{chrys::kThrowBadObject, e.id};
  link_dead_[e.id / 2] = true;
}

std::uint32_t Runtime::holder_of(End e) const { return end_holder_[e.id]; }

void Runtime::join() {
  start();
  crew_.join();
}

// --- Proc API ------------------------------------------------------------------

void Proc::fork(std::function<void()> fn) {
  Runtime::ProcState& ps = rt_.state_of_current();
  auto t = std::make_unique<Runtime::Thread>();
  t->fn = std::move(fn);
  ps.threads.push_back(std::move(t));
  ps.runnable.push_back(ps.threads.back().get());
  rt_.m_.charge(50 * sim::kMicrosecond);
}

std::vector<std::uint8_t> Proc::call(End e, const void* data, std::size_t n) {
  Runtime& rt = rt_;
  Runtime::ProcState& ps = rt.state_of_current();
  Runtime::Thread* t = rt.current_thread();
  if (!e.valid() || e.id >= rt.end_holder_.size() || rt.link_dead_[e.id / 2])
    throw chrys::ThrowSignal{chrys::kThrowBadObject, e.id};
  if (rt.end_holder_[e.id] != index_)
    throw chrys::ThrowSignal{chrys::kThrowNotOwner, e.id};

  const std::uint32_t dest = rt.end_holder_[e.opposite().id];
  const std::uint64_t token = rt.next_token_++;
  rt.tokens_[token] = {&ps, t};

  rt.m_.charge(kMarshalCost);
  Runtime::Wire w;
  w.kind = Runtime::Wire::kRequest;
  w.to_end = e.opposite();
  w.token = token;
  w.data.assign(static_cast<const std::uint8_t*>(data),
                static_cast<const std::uint8_t*>(data) + n);
  rt.post_wire(dest, std::move(w));

  t->reply_ready = false;
  rt.back_to_scheduler(ps);
  assert(t->reply_ready);
  return std::move(t->reply_data);
}

Request Proc::accept() {
  Runtime& rt = rt_;
  Runtime::ProcState& ps = rt.state_of_current();
  Runtime::Thread* t = rt.current_thread();
  rt.m_.charge(kDispatchCost);
  if (!ps.backlog.empty()) {
    Request req = std::move(ps.backlog.front());
    ps.backlog.pop_front();
    return req;
  }
  t->request_ready = false;
  ps.acceptors.push_back(t);
  rt.back_to_scheduler(ps);
  assert(t->request_ready);
  t->request_ready = false;
  return std::move(t->pending);
}

void Proc::reply(const Request& req, const void* data, std::size_t n) {
  Runtime& rt = rt_;
  auto it = rt.tokens_.find(req.token);
  if (it == rt.tokens_.end())
    throw chrys::ThrowSignal{chrys::kThrowBadObject,
                             static_cast<std::uint32_t>(req.token)};
  const std::uint32_t caller = it->second.first->view->index();
  rt.m_.charge(kMarshalCost);
  Runtime::Wire w;
  w.kind = Runtime::Wire::kReply;
  w.token = req.token;
  w.data.assign(static_cast<const std::uint8_t*>(data),
                static_cast<const std::uint8_t*>(data) + n);
  rt.post_wire(caller, std::move(w));
}

}  // namespace bfly::lynx
