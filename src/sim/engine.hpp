// Discrete-event engine.
//
// A single min-heap of (time, sequence, payload) events.  Sequence numbers
// make ordering total and deterministic.  Fibers interleave with the engine:
// an event typically resumes a fiber, which runs until it charges time (and
// schedules its own continuation) or blocks on a synchronization object.
// When the next event is another fiber's resume, the charging or blocking
// fiber dispatches it itself (post_fiber_and_take / take_fiber) and
// switches straight into that fiber, firing any *timer* due before it in
// place on the way; run() keeps closures, stop() and fiber exits.
//
// The heap is hand-rolled and holds plain data for host throughput:
//
//   * a heap entry is a trivially copyable 24-byte {time, key, arg}; `key`
//     is the sequence number shifted left twice with the event's kind in the
//     low bits, so comparing keys compares sequence numbers (they are
//     unique) and sifting is three word copies per level;
//   * a *fiber event* carries an opaque payload pointer (Machine passes its
//     FiberCtl*) in `arg`, handed straight to a registered handler —
//     posting one allocates nothing and dispatching one is an indirect call;
//   * a *closure event* carries in `arg` the index of a slot in the
//     engine's closure table.  The SmallFn (small lambdas stored inline, see
//     small_fn.hpp) is moved into a free slot once at post_at and moved out
//     once at dispatch, so heap sifting never touches a closure.  Slots are
//     recycled through a free list; the table grows on demand and is empty
//     until the first closure is posted;
//   * a *timer event* is a closure (same slot table) under a contract: it
//     may only change state and post events — never switch fibers, charge
//     or stop the engine.  That makes it safe to run on whatever stack
//     dispatches it, so post_fiber_and_take / take_fiber fire due timers in
//     place, in exactly the (time, seq) order run() would, instead of
//     yielding to run().
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class Engine {
 public:
  using Action = SmallFn;
  /// Handler for typed fiber events: called as handler(ctx, payload).
  using FiberHandler = void (*)(void* ctx, void* payload);

  Time now() const { return now_; }

  /// Register the handler that dispatches fiber events.  One per engine
  /// (the owning Machine); must be set before the first post_fiber_at.
  void set_fiber_handler(FiberHandler h, void* ctx) {
    fiber_fn_ = h;
    fiber_ctx_ = ctx;
  }

  /// Schedule `fn` at absolute time `t` (>= now).  A plain closure may do
  /// anything (kill nodes, stop the engine); it always runs from run().
  void post_at(Time t, Action fn) { post_slot(t, std::move(fn), kClosure); }

  /// Schedule `fn` after a delay.
  void post_in(Time delay, Action fn) { post_at(now_ + delay, std::move(fn)); }

  /// Schedule timer `fn` at absolute time `t` (>= now).  A timer may only
  /// change state and post events: it must not switch fibers, charge or
  /// stop the engine, because a charging or parking fiber may fire it in
  /// place, on its own stack.
  void post_timer_at(Time t, Action fn) {
    post_slot(t, std::move(fn), kTimer);
  }

  /// Schedule a fiber event at absolute time `t` (>= now).  `payload` must
  /// be non-null; it is handed verbatim to the registered fiber handler.
  /// Zero-allocation: the ~99% case on the simulator hot path.
  void post_fiber_at(Time t, void* payload) {
    assert(fiber_fn_ != nullptr && "post_fiber_at: no fiber handler set");
    assert(payload != nullptr);
    if (t < now_) t = now_;
    ++fiber_events_;
    push(Entry{t, seq_++ << 2 | kFiber,
               reinterpret_cast<std::uintptr_t>(payload)});
  }

  /// Post a fiber event at `t` (as post_fiber_at) and, when the earliest
  /// pending event is then a fiber event and no stop is requested, dispatch
  /// it in place of run(): pop it, advance the clock, count it, and return
  /// its payload — possibly `payload` itself — for the caller to switch
  /// into.  Timers due before that event are fired first, in place and in
  /// order.  Returns nullptr (the caller yields to run()) when the earliest
  /// event is a closure or a stop is requested.  One sift, not two: if the
  /// new entry sorts before the top it is dispatched without touching the
  /// heap, else it replaces the root and sifts down.  Every counter ends
  /// exactly as post_fiber_at followed by run()'s next dispatches would
  /// leave it, and reads the same from inside a timer.
  void* post_fiber_and_take(Time t, void* payload) {
    assert(fiber_fn_ != nullptr && "post_fiber_and_take: no fiber handler");
    assert(payload != nullptr);
    assert(!in_timer_ && "a timer must not charge");
    if (t < now_) t = now_;
    const Entry ev{t, seq_++ << 2 | kFiber,
                   reinterpret_cast<std::uintptr_t>(payload)};
    if (stopped_) return queue_for_run(ev);
    while (!heap_.empty() && kind(heap_.front()) != kFiber &&
           heap_.front().before(ev)) {
      if (kind(heap_.front()) == kClosure) return queue_for_run(ev);
      ++fiber_events_;  // `ev` is pending while the timer runs, as in run()
      fire_timer(pop_min());
      --fiber_events_;
    }
    ++dispatched_;
    if (heap_.empty() || ev.before(heap_.front())) {
      now_ = t;
      return payload;
    }
    const Entry top = heap_.front();
    sift_down(ev);
    now_ = top.t;
    return reinterpret_cast<void*>(top.arg);
  }

  /// Dispatch the earliest pending fiber event in place of run(), firing
  /// the timers due before it in place: pop it, advance the clock, count
  /// it, and return its payload.  Returns nullptr (the caller yields to
  /// run()) when a closure comes first, a stop is requested or nothing is
  /// left.  The blocking half of post_fiber_and_take.
  void* take_fiber() {
    assert(!in_timer_ && "a timer must not park");
    while (!stopped_ && !heap_.empty() && kind(heap_.front()) != kClosure) {
      const Entry ev = pop_min();
      if (kind(ev) == kTimer) {
        fire_timer(ev);
        continue;
      }
      now_ = ev.t;
      ++dispatched_;
      --fiber_events_;
      return reinterpret_cast<void*>(ev.arg);
    }
    return nullptr;
  }

  /// Run until the event queue drains or `stop()` is called.
  /// Returns the final simulated time.
  Time run() {
    stopped_ = false;
    while (!heap_.empty() && !stopped_) {
      const Entry ev = pop_min();
      now_ = ev.t;
      ++dispatched_;
      if (kind(ev) == kFiber) {
        --fiber_events_;
        fiber_fn_(fiber_ctx_, reinterpret_cast<void*>(ev.arg));
      } else {
        call_slot(ev.arg, kind(ev) == kTimer);
      }
    }
    return now_;
  }

  /// Stop the run loop after the current event completes.  Never from a
  /// timer.
  void stop() {
    assert(!in_timer_ && "a timer must not stop the engine");
    stopped_ = true;
  }
  /// True between a stop() call and the end of the current run() loop (the
  /// charge() fast path must not warp past a requested stop).
  bool stop_requested() const { return stopped_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Pending *fiber* events (scheduled resumes).  When this reaches zero
  /// with live fibers remaining, the heap has quiesced to closure and timer
  /// events (timeouts, watchdogs) only: no fiber will ever run again unless
  /// one of those wakes it — the trigger for Moviola's deadlock view.
  std::size_t pending_fiber_events() const { return fiber_events_; }

  /// Earliest pending event time.  Only valid when !empty(); the charge()
  /// fast path uses it to prove no event can interleave before a resume.
  Time next_time() const {
    assert(!heap_.empty());
    return heap_.front().t;
  }

  /// Advance the clock without dispatching: used before run() to offset a
  /// scenario, and by the charge() fast path to warp over stretches where
  /// no pending event can observably interleave.  Never goes backwards.
  void warp_to(Time t) {
    if (t > now_) now_ = t;
  }

  /// Host-side count of events dispatched since construction, by run() or
  /// in place (observational; feeds the host-performance benches).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// One heap entry: plain data, so sifting is word copies.  Public only so
  /// tests can pin its layout.
  struct Entry {
    Time t;
    std::uint64_t key;   ///< seq << 2 | kind: unique, so it orders by seq
    std::uintptr_t arg;  ///< fiber payload, or the closure's slot index

    bool before(const Entry& o) const {
      return t != o.t ? t < o.t : key < o.key;
    }
  };

 private:
  static constexpr std::uint64_t kFiber = 0;
  static constexpr std::uint64_t kClosure = 1;
  static constexpr std::uint64_t kTimer = 2;

  static std::uint64_t kind(const Entry& e) { return e.key & 3; }

  void post_slot(Time t, Action fn, std::uint64_t k) {
    if (t < now_) t = now_;
    std::uintptr_t slot;
    if (free_slots_.empty()) {
      slot = slots_.size();
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    push(Entry{t, seq_++ << 2 | k, slot});
  }

  // Move the closure out before calling it: it may post closures that grow
  // (and reallocate) the slot table, or reuse this slot.
  void call_slot(std::uintptr_t slot, bool timer) {
    Action fn = std::move(slots_[slot]);
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    in_timer_ = timer;
    fn();
    in_timer_ = false;
  }

  // Queue a fiber entry that post_fiber_and_take could not dispatch, for
  // run() to dispatch; the caller yields.
  void* queue_for_run(const Entry& ev) {
    ++fiber_events_;
    push(ev);
    return nullptr;
  }

  // Dispatch a popped timer exactly as run() would.
  void fire_timer(const Entry& ev) {
    now_ = ev.t;
    ++dispatched_;
    call_slot(ev.arg, true);
  }

  // Binary min-heap over (t, key).  Sift by copying into a hole: one copy
  // per level, and no self-copy at the boundaries.
  void push(Entry ev) {
    heap_.emplace_back();
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!ev.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  Entry pop_min() {
    const Entry min = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return min;
  }

  // Overwrite the root with `ev` and restore heap order below it.
  void sift_down(Entry ev) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(ev)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = ev;
  }

  std::vector<Entry> heap_;
  std::vector<Action> slots_;  ///< closure bodies, indexed by Entry::arg
  std::vector<std::uint32_t> free_slots_;
  std::size_t fiber_events_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  bool in_timer_ = false;
  FiberHandler fiber_fn_ = nullptr;
  void* fiber_ctx_ = nullptr;
};

}  // namespace bfly::sim
