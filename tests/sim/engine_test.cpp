#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/rng.hpp"

namespace bfly::sim {
namespace {

// The heap holds plain data: sifting copies words and never touches a
// closure body, which lives in the engine's slot table.
static_assert(std::is_trivially_copyable_v<Engine::Entry>);
static_assert(sizeof(Engine::Entry) == 24);

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.post_at(30, [&] { order.push_back(3); });
  e.post_at(10, [&] { order.push_back(1); });
  e.post_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) e.post_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) e.post_in(7, hop);
  };
  e.post_at(0, hop);
  EXPECT_EQ(e.run(), 28u);
  EXPECT_EQ(hops, 5);
}

TEST(Engine, PastPostingsClampToNow) {
  Engine e;
  Time seen = 1234;
  e.post_at(100, [&] {
    e.post_at(1, [&] { seen = e.now(); });  // in the past: clamps to now
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, StopHaltsTheLoop) {
  Engine e;
  int ran = 0;
  e.post_at(1, [&] { ++ran; e.stop(); });
  e.post_at(2, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(e.empty());
}

// Regression for the hand-rolled heap replacing std::priority_queue (whose
// top() had to be const_cast-moved): equal-time events must dispatch in
// sequence order even when new same-time events are posted *while* the tie
// group is already being drained — the pop/push interleaving exercises
// sift-down immediately followed by sift-up through the same subtree.
TEST(Engine, EqualTimePostsDuringDispatchKeepSeqOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    e.post_at(5, [&e, &order, i] {
      order.push_back(i);
      // Same-time follow-ons, posted mid-drain: they must run after every
      // earlier-posted t=5 event and in their own posting order.
      e.post_at(5, [&order, i] { order.push_back(100 + i); });
    });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100, 101, 102, 103}));
}

TEST(Engine, HeapOrdersRandomizedTimesDeterministically) {
  // Shuffled posting times: the heap must replay them in (time, seq) order.
  Engine e;
  Rng rng(1234);
  std::vector<std::pair<Time, int>> posted;
  std::vector<std::pair<Time, int>> ran;
  for (int i = 0; i < 500; ++i) {
    const Time t = rng.below(64);  // heavy tie traffic on purpose
    posted.emplace_back(t, i);
    e.post_at(t, [&ran, t, i] { ran.emplace_back(t, i); });
  }
  e.run();
  std::stable_sort(posted.begin(), posted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(ran, posted);
}

TEST(Engine, TypedFiberEventsInterleaveWithClosuresInSeqOrder) {
  // Fiber events (opaque payload, zero-allocation) and closure events posted
  // at the same time share one total (time, seq) order.
  Engine e;
  std::vector<int> order;
  e.set_fiber_handler(
      [](void* ctx, void* payload) {
        static_cast<std::vector<int>*>(ctx)->push_back(
            static_cast<int>(reinterpret_cast<std::intptr_t>(payload)));
      },
      &order);
  e.post_fiber_at(7, reinterpret_cast<void*>(std::intptr_t{1}));
  e.post_at(7, [&order] { order.push_back(2); });
  e.post_fiber_at(7, reinterpret_cast<void*>(std::intptr_t{3}));
  e.post_at(3, [&order] { order.push_back(0); });
  EXPECT_EQ(e.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, NextTimeTracksEarliestPendingEvent) {
  Engine e;
  e.post_at(30, [] {});
  EXPECT_EQ(e.next_time(), 30u);
  e.post_at(10, [] {});
  EXPECT_EQ(e.next_time(), 10u);
  e.post_at(20, [] {});
  EXPECT_EQ(e.next_time(), 10u);
  e.run();
  EXPECT_TRUE(e.empty());
}

TEST(Engine, StopRequestedVisibleDuringRun) {
  Engine e;
  bool seen = false;
  e.post_at(1, [&] {
    e.stop();
    seen = e.stop_requested();
  });
  e.run();
  EXPECT_TRUE(seen);
  EXPECT_TRUE(e.stop_requested());  // stays set until the next run() starts
  int ran = 0;
  e.post_at(2, [&] { ++ran; });
  e.run();  // clears the flag on entry and dispatches normally
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(e.stop_requested());
}

TEST(Engine, OutsizedClosuresStillDispatch) {
  // Captures beyond SmallFn's inline buffer take the heap fallback; the
  // engine contract (order, values) must not change.
  Engine e;
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  e.post_at(1, [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  e.run();
  EXPECT_EQ(sum, 136u);
}

TEST(Engine, CountsDispatchedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.post_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_dispatched(), 5u);
}

TEST(Engine, WarpToAdvancesClock) {
  Engine e;
  e.warp_to(500);
  EXPECT_EQ(e.now(), 500u);
  e.warp_to(100);  // never goes backwards
  EXPECT_EQ(e.now(), 500u);
}

TEST(Engine, ClosureGrowsSlotTableWhileRunning) {
  // The running closure is moved out of its slot before the call, so
  // posting enough closures to reallocate the slot table cannot pull its
  // inline captures out from under it (it reads `base` after the posts).
  Engine e;
  std::vector<int> order;
  const int base = 7;
  e.post_at(1, [&e, &order, base] {
    for (int i = 0; i < 1000; ++i)
      e.post_at(2, [&order, i] { order.push_back(i); });
    order.push_back(-base);
  });
  EXPECT_EQ(e.run(), 2u);
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order[0], -7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[1 + i], i);
}

TEST(Engine, ReusedSlotsKeepFifoOrderForEqualTimes) {
  // Slot indices are recycled last-freed-first, so later posts land in
  // lower slots than earlier ones; equal-time order must still follow
  // posting order, not slot order.
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) e.post_at(1, [] {});
  e.run();  // four slots, all free again
  EXPECT_EQ(e.pending(), 0u);
  for (int i = 0; i < 6; ++i)
    e.post_at(5, [&order, i] { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // A slot freed mid-run is reused by the closure that runs next.
  order.clear();
  e.post_at(9, [&e, &order] {
    order.push_back(0);
    e.post_at(9, [&order] { order.push_back(2); });
  });
  e.post_at(9, [&order] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, DestroyingEngineDestroysPendingClosures) {
  auto token = std::make_shared<int>(0);
  {
    Engine e;
    e.post_at(1, [token] {});  // inline capture
    std::array<std::uint64_t, 8> big{};
    e.post_at(2, [token, big] { (void)big; });  // heap fallback
    e.post_at(3, [&e] { e.stop(); });
    e.post_at(4, [token] {});
    e.run();  // runs the first two, stops with one closure pending
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, PendingFiberEventsCountsOnlyFiberEvents) {
  Engine e;
  std::vector<std::size_t> seen;
  struct Ctx {
    Engine* e;
    std::vector<std::size_t>* seen;
  } ctx{&e, &seen};
  e.set_fiber_handler(
      [](void* c, void*) {
        auto* x = static_cast<Ctx*>(c);
        x->seen->push_back(x->e->pending_fiber_events());
      },
      &ctx);
  int tag = 0;
  e.post_fiber_at(1, &tag);
  e.post_at(2, [&] { seen.push_back(100 + e.pending_fiber_events()); });
  e.post_fiber_at(3, &tag);
  e.post_at(3, [&] {
    e.post_fiber_at(4, &tag);
    seen.push_back(100 + e.pending_fiber_events());
  });
  e.post_fiber_at(5, &tag);
  EXPECT_EQ(e.pending_fiber_events(), 3u);
  EXPECT_EQ(e.pending(), 5u);
  e.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 102, 1, 102, 1, 0}));
  EXPECT_EQ(e.pending_fiber_events(), 0u);
  EXPECT_EQ(e.events_dispatched(), 6u);
}

// post_fiber_and_take / take_fiber dispatch in place of run(): the same
// event run() would dispatch next, with the same clock and counters.
TEST(Engine, PostFiberAndTakeDispatchesTheEarliestFiberEvent) {
  Engine e;
  std::vector<std::intptr_t> ran;
  e.set_fiber_handler(
      [](void* ctx, void* payload) {
        static_cast<std::vector<std::intptr_t>*>(ctx)->push_back(
            reinterpret_cast<std::intptr_t>(payload));
      },
      &ran);
  auto tag = [](std::intptr_t i) { return reinterpret_cast<void*>(i); };

  // Empty heap: the new entry is the earliest, dispatched untouched.
  EXPECT_EQ(e.post_fiber_and_take(5, tag(1)), tag(1));
  EXPECT_EQ(e.now(), 5u);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.events_dispatched(), 1u);
  EXPECT_EQ(e.pending_fiber_events(), 0u);

  // An earlier fiber event wins; a tie goes to the older sequence number.
  e.post_fiber_at(8, tag(2));
  e.post_fiber_at(9, tag(3));
  EXPECT_EQ(e.post_fiber_and_take(8, tag(4)), tag(2));
  EXPECT_EQ(e.now(), 8u);
  EXPECT_EQ(e.pending_fiber_events(), 2u);
  EXPECT_EQ(e.post_fiber_and_take(9, tag(5)), tag(4));
  EXPECT_EQ(e.take_fiber(), tag(3));
  EXPECT_EQ(e.pending_fiber_events(), 1u);
  EXPECT_EQ(e.take_fiber(), tag(5));
  EXPECT_EQ(e.now(), 9u);
  EXPECT_EQ(e.events_dispatched(), 5u);
  EXPECT_EQ(e.pending_fiber_events(), 0u);

  // A closure on top: nothing is dispatched, the entry stays queued and
  // run() dispatches both in order.
  e.post_at(10, [&ran] { ran.push_back(100); });
  EXPECT_EQ(e.post_fiber_and_take(11, tag(6)), nullptr);
  EXPECT_EQ(e.pending_fiber_events(), 1u);
  EXPECT_EQ(e.run(), 11u);
  EXPECT_EQ(ran, (std::vector<std::intptr_t>{100, 6}));
  EXPECT_EQ(e.take_fiber(), nullptr);  // empty heap
  EXPECT_EQ(e.events_dispatched(), 7u);
}

TEST(Engine, TakeIsRefusedWhileAStopIsRequested) {
  Engine e;
  e.set_fiber_handler([](void*, void*) {}, nullptr);
  int tag = 0;
  e.post_fiber_at(1, &tag);
  e.post_at(0, [&] {
    e.stop();
    EXPECT_EQ(e.take_fiber(), nullptr);
    EXPECT_EQ(e.post_fiber_and_take(0, &tag), nullptr);
  });
  e.run();
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.pending_fiber_events(), 2u);
  EXPECT_EQ(e.events_dispatched(), 1u);
}

// stop() from a fiber halts the run at that fiber's next yield point: its
// charge must not hand off to the fiber whose resume is next.
TEST(Engine, StopFromAFiberLetsNoOtherFiberRun) {
  Machine m(butterfly1(2));
  std::vector<int> order;
  m.spawn(0, [&] {
    m.charge(10);
    m.engine().stop();
    m.charge(10);
    order.push_back(0);
  });
  m.spawn(1, [&] { order.push_back(1); }, "later", 15);
  m.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(m.now(), 10u);
  EXPECT_EQ(m.live_fibers(), 2u);
  m.run();  // resumes where it stopped, in event order
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(m.live_fibers(), 0u);
}

// A fixed 3-fiber ping-pong: the counts are pinned to those of the engine
// round trip (every resume dispatched by run()), so handing off directly
// must dispatch exactly the same events and resumes.
TEST(Engine, PingPongCountsMatchTheEngineRoundTrip) {
  struct Counts {
    std::uint64_t events, resumes, fastpath, pending_sum;
    std::size_t samples;
    Time end;
  };
  std::vector<Counts> got;
  for (bool fast : {true, false}) {
    MachineConfig cfg = butterfly1(4);
    cfg.host_fastpath = fast;
    Machine m(cfg);
    constexpr int kRounds = 40;
    std::uint64_t pending_sum = 0;
    std::size_t samples = 0;
    auto sample = [&] {
      pending_sum += m.engine().pending_fiber_events();
      ++samples;
    };
    Fiber* p = nullptr;
    Fiber* q = nullptr;
    p = m.spawn(0, [&] {
      for (int r = 0; r < kRounds; ++r) {
        m.charge(1);
        m.wakeup(q);
        m.park();
        sample();
      }
    });
    q = m.spawn(1, [&] {
      for (int r = 0; r < kRounds; ++r) {
        m.park();
        m.charge(3);
        sample();
        m.wakeup(p);
      }
    });
    m.spawn(2, [&] {
      for (int r = 0; r < 3 * kRounds; ++r) {
        m.charge(2);
        sample();
      }
    });
    m.run();
    EXPECT_FALSE(m.deadlocked());
    const HostPerf hp = m.host_perf();
    got.push_back(Counts{hp.events_dispatched, hp.fiber_resumes,
                         hp.fastpath_charges, pending_sum, samples, m.now()});
  }
  ASSERT_EQ(got.size(), 2u);
  for (const Counts& c : got) {
    EXPECT_EQ(c.samples, 200u);
    EXPECT_EQ(c.end, 240u);
    EXPECT_EQ(c.pending_sum, 160u);
  }
  EXPECT_EQ(got[0].events, 205u);
  EXPECT_EQ(got[0].resumes, 205u);
  EXPECT_EQ(got[0].fastpath, 78u);
  EXPECT_EQ(got[1].events, 283u);
  EXPECT_EQ(got[1].resumes, 283u);
  EXPECT_EQ(got[1].fastpath, 0u);
}

// --- Timer events -----------------------------------------------------------

// A bare-engine model of charging and parking fibers.  Each actor's step
// either charges (posts its own resume after a delay), parks until a timer
// it armed wakes it, or arms a plain closure and charges.  One world
// dispatches every event from run() (post, then return to run()); the
// other does what Machine does (post_fiber_and_take / take_fiber, then
// keeps going with whichever actor they hand back), so its timers fire in
// place.  Both must take the same steps at the same times and counts.
struct TimerWorld {
  struct Step {
    Time t;
    int who;  // actor id, or 100 + id for its timer, 200 + id for a closure
    std::size_t pending_fibers;
    bool operator==(const Step&) const = default;
  };

  explicit TimerWorld(bool in_place) : in_place(in_place) {
    e.set_fiber_handler(
        [](void* w, void* a) {
          auto* self = static_cast<TimerWorld*>(w);
          for (int i = id(a); i >= 0;) i = self->step(i);
        },
        this);
    for (int i = 0; i < kActors; ++i) e.post_fiber_at(0, actor(i));
  }

  static constexpr int kActors = 6;
  static void* actor(int i) {
    return reinterpret_cast<void*>(static_cast<std::intptr_t>(i + 1));
  }
  static int id(void* p) {
    return static_cast<int>(reinterpret_cast<std::intptr_t>(p)) - 1;
  }

  void note(int who) {
    log.push_back(Step{e.now(), who, e.pending_fiber_events()});
  }

  // One step of actor i; returns the actor to continue with, or -1.
  int step(int i) {
    note(i);
    if (--steps_left[i] < 0) return -1;
    in_step = true;
    const Time at = e.now() + rng.below(4);
    int next = -1;
    switch (rng.below(4)) {
      case 0:  // park; a timer wakes us
        e.post_timer_at(at, [this, i] {
          note(100 + i);
          if (in_step) ++fired_in_place;
          e.post_fiber_at(e.now(), actor(i));
        });
        if (in_place) next = id(e.take_fiber());
        break;
      case 1:  // a plain closure, then charge
        e.post_at(at, [this, i] { note(200 + i); });
        [[fallthrough]];
      default:  // charge
        if (in_place)
          next = id(e.post_fiber_and_take(e.now() + rng.below(3), actor(i)));
        else
          e.post_fiber_at(e.now() + rng.below(3), actor(i));
    }
    in_step = false;
    return next;
  }

  Engine e;
  bool in_place;
  bool in_step = false;
  int fired_in_place = 0;
  Rng rng{21};
  std::array<int, kActors> steps_left{40, 40, 40, 40, 40, 40};
  std::vector<Step> log;
};

TEST(EngineTimer, InPlaceFiringKeepsRunOrderAndCounts) {
  TimerWorld by_run(false);
  TimerWorld in_place(true);
  by_run.e.run();
  in_place.e.run();
  EXPECT_EQ(by_run.fired_in_place, 0);
  EXPECT_GT(in_place.fired_in_place, 20);
  ASSERT_EQ(in_place.log.size(), by_run.log.size());
  EXPECT_TRUE(in_place.log == by_run.log);
  EXPECT_EQ(in_place.e.events_dispatched(), by_run.e.events_dispatched());
  EXPECT_EQ(in_place.e.now(), by_run.e.now());
  EXPECT_EQ(in_place.e.pending_fiber_events(), 0u);
}

TEST(EngineTimer, DueTimersFireBeforeTheTakenFiberEvent) {
  Engine e;
  e.set_fiber_handler([](void*, void*) {}, nullptr);
  int a = 0, b = 0;
  std::vector<int> order;
  e.post_timer_at(3, [&] { order.push_back(3); });
  e.post_timer_at(5, [&] {
    order.push_back(5);
    e.post_fiber_at(5, &a);  // a timer's post joins the same order
  });
  e.post_timer_at(6, [&] { order.push_back(6); });
  EXPECT_EQ(e.post_fiber_and_take(6, &b), &a);
  EXPECT_EQ(order, (std::vector<int>{3, 5}));
  EXPECT_EQ(e.now(), 5u);
  // The timer at 6 was posted before b, so it still comes first.
  EXPECT_EQ(e.take_fiber(), &b);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 6}));
  EXPECT_EQ(e.events_dispatched(), 5u);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTimer, AClosureOnTopStillYieldsToRun) {
  Engine e;
  std::vector<int> order;
  e.set_fiber_handler(
      [](void* ctx, void*) {
        static_cast<std::vector<int>*>(ctx)->push_back(0);
      },
      &order);
  int tag = 0;
  e.post_at(4, [&] { order.push_back(4); });
  e.post_timer_at(4, [&] { order.push_back(5); });  // behind the closure
  EXPECT_EQ(e.post_fiber_and_take(6, &tag), nullptr);
  EXPECT_EQ(e.take_fiber(), nullptr);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(e.pending(), 3u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{4, 5, 0}));
}

TEST(EngineTimer, StopHaltsInPlaceFiring) {
  Engine e;
  e.set_fiber_handler([](void*, void*) {}, nullptr);
  int tag = 0;
  bool fired = false;
  e.post_at(0, [&] {
    e.stop();
    EXPECT_EQ(e.take_fiber(), nullptr);
    EXPECT_EQ(e.post_fiber_and_take(5, &tag), nullptr);
    EXPECT_FALSE(fired);
  });
  e.post_timer_at(1, [&] { fired = true; });
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.pending_fiber_events(), 1u);
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 5u);
}

// A timer fired in place by a parking fiber may wake that very fiber, still
// running on its own stack; the wakeup must not be dropped as "running".
TEST(EngineTimer, ATimerCanWakeTheFiberThatIsParking) {
  Machine m(butterfly1(2));
  Time woke = 0;
  Fiber* f = nullptr;
  f = m.spawn(0, [&] {
    m.engine().post_timer_at(m.now() + 10, [&] { m.wakeup(f); });
    m.park();
    woke = m.now();
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(woke, 10u);
  const HostPerf hp = m.host_perf();
  EXPECT_EQ(hp.events_dispatched, 3u);  // start, timer, resume
  EXPECT_EQ(hp.fiber_resumes, 2u);
}

}  // namespace
}  // namespace bfly::sim
