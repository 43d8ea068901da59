#include "antfarm/antfarm.hpp"

#include <cassert>

namespace bfly::antfarm {

namespace {
constexpr sim::Time kLocalSendCost = 15 * sim::kMicrosecond;
constexpr sim::Time kReceiveCost = 10 * sim::kMicrosecond;
constexpr sim::Time kStartCost = 60 * sim::kMicrosecond;
}  // namespace

Colony::Colony(chrys::Kernel& k, std::uint32_t nodes_used)
    : k_(k), m_(k.machine()), crew_(k) {
  nodes_ = nodes_used == 0 ? m_.nodes() : std::min(nodes_used, m_.nodes());
  runtimes_.reserve(nodes_);
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    auto rt = std::make_unique<Runtime>();
    rt->node = n;
    rt->control_dq = k_.make_dual_queue();
    runtimes_.push_back(std::move(rt));
  }
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    Runtime* rt = runtimes_[n].get();
    crew_.start(
        n,
        [this, rt] {
          rt->wake_event = k_.make_event();
          rt->sched_fiber = sim::Fiber::current();
          // The machine frees the fiber when the scheduler ends, which a
          // node kill may make happen before its threads have unwound.
          struct Gone {
            Runtime* rt;
            ~Gone() { rt->sched_fiber = nullptr; }
          } gone{rt};
          scheduler_loop(*rt);
        },
        "antfarm-rt" + std::to_string(n));
  }
}

Colony::~Colony() = default;

// --- Scheduler ---------------------------------------------------------------

void Colony::scheduler_loop(Runtime& rt) {
  while (true) {
    // Drain cross-node commands first.
    std::uint32_t cid = 0;
    while (k_.dq_try_dequeue(rt.control_dq, &cid)) {
      Command cmd = std::move(commands_[cid]);
      command_free_.push_back(cid);
      switch (cmd.kind) {
        case Command::kStart: {
          auto t = std::make_unique<Thread>();
          t->id = cmd.target;
          t->fn = std::move(cmd.fn);
          Thread* tp = t.get();
          rt.threads.push_back(std::move(t));
          make_runnable(rt, tp);
          break;
        }
        case Command::kSend: {
          const auto local =
              static_cast<std::uint32_t>(cmd.target & 0xffffffffu);
          deliver_local(rt, rt.threads[local].get(), cmd.datum);
          break;
        }
        case Command::kStop:
          rt.stop = true;
          break;
      }
    }
    if (!rt.runnable.empty()) {
      Thread* t = rt.runnable.front();
      rt.runnable.pop_front();
      dispatch(rt, t);
      continue;
    }
    if (rt.stop) break;
    // Nothing runnable: block the whole process on a Chrysalis event.
    (void)k_.event_wait(rt.wake_event);
  }
}

void Colony::dispatch(Runtime& rt, Thread* t) {
  m_.charge(m_.config().thread_switch_ns);
  if (t->fiber == nullptr) {
    // First dispatch: create the coroutine.
    t->fiber = m_.spawn_parked(rt.node, [this, &rt, t] {
      thread_trampoline(rt, t);
    });
    by_fiber_[t->fiber] = {&rt, t};
  }
  m_.wakeup(t->fiber);
  m_.park();
  if (t->finished) {
    by_fiber_.erase(t->fiber);
    --live_threads_;
  }
}

void Colony::thread_trampoline(Runtime& rt, Thread* t) {
  t->fn();
  t->finished = true;
  wake_scheduler(rt);
  // Fall off: the fiber finishes and the machine reaps it.
}

void Colony::wake_scheduler(Runtime& rt) {
  if (rt.sched_fiber != nullptr) m_.wakeup(rt.sched_fiber);
}

void Colony::back_to_scheduler(Runtime& rt) {
  wake_scheduler(rt);
  m_.park();
}

void Colony::make_runnable(Runtime& rt, Thread* t) {
  rt.runnable.push_back(t);
}

void Colony::deliver_local(Runtime& rt, Thread* t, std::uint64_t datum) {
  t->inbox.push_back(datum);
  if (t->blocked_on_receive) {
    t->blocked_on_receive = false;
    make_runnable(rt, t);
  }
}

void Colony::post_command(Runtime& rt, Command cmd) {
  std::uint32_t cid;
  if (!command_free_.empty()) {
    cid = command_free_.back();
    command_free_.pop_back();
    commands_[cid] = std::move(cmd);
  } else {
    commands_.push_back(std::move(cmd));
    cid = static_cast<std::uint32_t>(commands_.size() - 1);
  }
  k_.dq_enqueue(rt.control_dq, cid);
  // Ring the doorbell unconditionally: posting to a non-waiting scheduler
  // just leaves the event pending (skipping the post for a busy-looking
  // scheduler would race and lose the wakeup).
  if (rt.wake_event != chrys::kNoObject)
    k_.event_post(rt.wake_event, 0);
}

Colony::Runtime& Colony::runtime_of_current() {
  auto it = by_fiber_.find(sim::Fiber::current());
  if (it == by_fiber_.end())
    throw sim::SimError("not called from an Ant Farm thread");
  return *it->second.first;
}

Colony::Thread* Colony::current_thread() {
  auto it = by_fiber_.find(sim::Fiber::current());
  return it == by_fiber_.end() ? nullptr : it->second.second;
}

// --- Public API -----------------------------------------------------------------

ThreadId Colony::start(sim::NodeId node, std::function<void()> fn) {
  if (node >= nodes_) throw sim::SimError("start: node outside colony");
  Runtime& rt = *runtimes_[node];
  const ThreadId id =
      (static_cast<ThreadId>(node) << 32) | rt.next_local++;
  ++live_threads_;
  ++threads_started_;
  m_.charge(kStartCost);
  Thread* cur = current_thread();
  if (cur != nullptr && node_of(cur->id) == node) {
    // Local start: no kernel traffic needed.
    auto t = std::make_unique<Thread>();
    t->id = id;
    t->fn = std::move(fn);
    Thread* tp = t.get();
    rt.threads.push_back(std::move(t));
    make_runnable(rt, tp);
  } else {
    Command cmd;
    cmd.kind = Command::kStart;
    cmd.target = id;
    cmd.fn = std::move(fn);
    post_command(rt, std::move(cmd));
  }
  return id;
}

ThreadId Colony::self() {
  Thread* t = current_thread();
  if (t == nullptr) throw sim::SimError("self: not an Ant Farm thread");
  return t->id;
}

void Colony::send(ThreadId to, std::uint64_t datum) {
  ++messages_;
  const sim::NodeId node = node_of(to);
  Runtime& target = *runtimes_[node];
  Thread* cur = current_thread();
  if (cur != nullptr && node_of(cur->id) == node) {
    m_.charge(kLocalSendCost);
    deliver_local(target, target.threads[to & 0xffffffffu].get(), datum);
  } else {
    Command cmd;
    cmd.kind = Command::kSend;
    cmd.target = to;
    cmd.datum = datum;
    post_command(target, std::move(cmd));
  }
}

std::uint64_t Colony::receive() {
  Thread* t = current_thread();
  if (t == nullptr) throw sim::SimError("receive: not an Ant Farm thread");
  m_.charge(kReceiveCost);
  if (t->inbox.empty()) {
    t->blocked_on_receive = true;
    back_to_scheduler(*runtimes_[node_of(t->id)]);
  }
  assert(!t->inbox.empty());
  const std::uint64_t v = t->inbox.front();
  t->inbox.pop_front();
  return v;
}

bool Colony::try_receive(std::uint64_t* out) {
  Thread* t = current_thread();
  if (t == nullptr) throw sim::SimError("try_receive: not an Ant Farm thread");
  m_.charge(kReceiveCost);
  if (t->inbox.empty()) return false;
  *out = t->inbox.front();
  t->inbox.pop_front();
  return true;
}

void Colony::yield() {
  Thread* t = current_thread();
  if (t == nullptr) throw sim::SimError("yield: not an Ant Farm thread");
  Runtime& rt = *runtimes_[node_of(t->id)];
  make_runnable(rt, t);
  back_to_scheduler(rt);
}

sim::PhysAddr Colony::galloc(std::size_t bytes) {
  const sim::NodeId node = heap_cursor_++ % nodes_;
  m_.charge(50 * sim::kMicrosecond);
  return m_.alloc(node, bytes);
}

void Colony::join() {
  // Poll until every thread has finished and no command is in flight, then
  // stop the runtimes.
  while (live_threads_ > 0) k_.delay(sim::kMillisecond);
  for (auto& rt : runtimes_) {
    Command cmd;
    cmd.kind = Command::kStop;
    post_command(*rt, std::move(cmd));
  }
  crew_.join();
}

}  // namespace bfly::antfarm
