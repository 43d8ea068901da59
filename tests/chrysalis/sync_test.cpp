#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "chrysalis/spinlock.hpp"

namespace bfly::chrys {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

TEST(Event, PostThenWaitDeliversDatum) {
  Machine m(butterfly1(2));
  Kernel k(m);
  std::uint32_t got = 0;
  k.create_process(0, [&] {
    Oid ev = k.make_event();
    k.event_post(ev, 42);
    got = k.event_wait(ev);
  });
  m.run();
  EXPECT_EQ(got, 42u);
}

TEST(Event, WaitBlocksUntilPostFromAnotherNode) {
  Machine m(butterfly1(2));
  Kernel k(m);
  std::uint32_t got = 0;
  Time woke = 0;
  Oid ev = kNoObject;
  k.create_process(0, [&] {
    ev = k.make_event();
    got = k.event_wait(ev);
    woke = m.now();
  });
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    k.event_post(ev, 7);
  });
  m.run();
  EXPECT_EQ(got, 7u);
  EXPECT_GE(woke, 5 * sim::kMillisecond);
  EXPECT_FALSE(m.deadlocked());
}

TEST(Event, OnlyOwnerCanWait) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid ev = kNoObject;
  int code = 0;
  k.create_process(0, [&] {
    ev = k.make_event();
    k.delay(20 * sim::kMillisecond);
  });
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    code = k.catch_block([&] { (void)k.event_wait(ev); });
  });
  m.run();
  EXPECT_EQ(code, kThrowNotOwner);
}

TEST(Event, SecondPostOverwrites) {
  Machine m(butterfly1(1));
  Kernel k(m);
  std::uint32_t got = 0;
  k.create_process(0, [&] {
    Oid ev = k.make_event();
    k.event_post(ev, 1);
    k.event_post(ev, 2);  // binary semantics: overwrites
    got = k.event_wait(ev);
  });
  m.run();
  EXPECT_EQ(got, 2u);
}

TEST(Event, PrimitivesCompleteInTensOfMicroseconds) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Time post_cost = 0, wait_cost = 0;
  k.create_process(0, [&] {
    Oid ev = k.make_event();
    Time t0 = m.now();
    k.event_post(ev, 0);
    post_cost = m.now() - t0;
    t0 = m.now();
    (void)k.event_wait(ev);
    wait_cost = m.now() - t0;
  });
  m.run();
  EXPECT_GE(post_cost, 10 * sim::kMicrosecond);
  EXPECT_LE(post_cost, 90 * sim::kMicrosecond);
  EXPECT_GE(wait_cost, 10 * sim::kMicrosecond);
  EXPECT_LE(wait_cost, 90 * sim::kMicrosecond);
}

TEST(DualQueue, DataToMultipleWaiters) {
  Machine m(butterfly1(4));
  Kernel k(m);
  std::vector<std::uint32_t> got(3, 0);
  Oid dq = k.make_dual_queue();
  for (int i = 0; i < 3; ++i)
    k.create_process(i, [&, i] { got[i] = k.dq_dequeue(dq); });
  k.create_process(3, [&] {
    k.delay(sim::kMillisecond);
    k.dq_enqueue(dq, 10);
    k.dq_enqueue(dq, 20);
    k.dq_enqueue(dq, 30);
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  // FIFO handoff to waiters in blocking order.
  EXPECT_EQ(got, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(DualQueue, HoldsDataFromMultiplePosts) {
  Machine m(butterfly1(1));
  Kernel k(m);
  std::vector<std::uint32_t> got;
  k.create_process(0, [&] {
    Oid dq = k.make_dual_queue();
    for (std::uint32_t i = 1; i <= 5; ++i) k.dq_enqueue(dq, i);
    EXPECT_EQ(k.dq_depth(dq), 5u);
    for (int i = 0; i < 5; ++i) got.push_back(k.dq_dequeue(dq));
  });
  m.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
}

TEST(DualQueue, TryDequeueDoesNotBlock) {
  Machine m(butterfly1(1));
  Kernel k(m);
  bool empty_ok = false;
  k.create_process(0, [&] {
    Oid dq = k.make_dual_queue();
    std::uint32_t v = 0;
    empty_ok = !k.dq_try_dequeue(dq, &v);
    k.dq_enqueue(dq, 9);
    empty_ok = empty_ok && k.dq_try_dequeue(dq, &v) && v == 9;
  });
  m.run();
  EXPECT_TRUE(empty_ok);
}

TEST(DualQueue, BoundedQueueThrowsWhenFull) {
  Machine m(butterfly1(1));
  Kernel k(m);
  int code = 0;
  k.create_process(0, [&] {
    Oid dq = k.make_dual_queue(2);
    k.dq_enqueue(dq, 1);
    k.dq_enqueue(dq, 2);
    code = k.catch_block([&] { k.dq_enqueue(dq, 3); });
  });
  m.run();
  EXPECT_EQ(code, kThrowQueueFull);
}

TEST(DualQueue, AnyoneCanEnqueueProtectionLoophole) {
  // Section 2.2: "a process can enqueue and dequeue information on any dual
  // queue it can name" — names are sequential and guessable.
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid dq = kNoObject;
  std::uint32_t stolen = 0;
  k.create_process(0, [&] {
    dq = k.make_dual_queue();
    k.dq_enqueue(dq, 777);
    k.delay(10 * sim::kMillisecond);
  });
  k.create_process(1, [&] {
    k.delay(sim::kMillisecond);
    const Oid guessed = dq;  // in reality: brute-force the small name space
    stolen = k.dq_dequeue(guessed);
  });
  m.run();
  EXPECT_EQ(stolen, 777u);
}

TEST(CatchThrow, CostsAbout70Microseconds) {
  Machine m(butterfly1(1));
  Kernel k(m);
  Time cost = 0;
  k.create_process(0, [&] {
    const Time t0 = m.now();
    (void)k.catch_block([] {});
    cost = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(cost, 70 * sim::kMicrosecond);
}

TEST(CatchThrow, NestedCatchUnwindsToNearest) {
  Machine m(butterfly1(1));
  Kernel k(m);
  int outer = -1, inner = -1;
  k.create_process(0, [&] {
    outer = k.catch_block([&] {
      inner = k.catch_block([&] { k.throw_err(kThrowUser + 5); });
      // Execution continues after the inner catch.
    });
  });
  m.run();
  EXPECT_EQ(inner, kThrowUser + 5);
  EXPECT_EQ(outer, kThrowNone);
}

TEST(CatchThrow, DatumIsDelivered) {
  Machine m(butterfly1(1));
  Kernel k(m);
  std::uint32_t datum = 0;
  int code = 0;
  k.create_process(0, [&] {
    code = k.catch_block([&] { k.throw_err(kThrowUser, 0xabcd); }, &datum);
  });
  m.run();
  EXPECT_EQ(code, kThrowUser);
  EXPECT_EQ(datum, 0xabcdu);
}

TEST(SpinLock, MutualExclusionAcrossNodes) {
  Machine m(butterfly1(8));
  Kernel k(m);
  sim::PhysAddr cell = m.alloc(0, 8);
  sim::PhysAddr counter = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  m.poke<std::uint32_t>(counter, 0);
  for (int n = 0; n < 8; ++n) {
    k.create_process(n, [&m, cell, counter] {
      SpinLock lock(m, cell);
      for (int i = 0; i < 20; ++i) {
        lock.acquire();
        // Non-atomic read-modify-write protected by the lock.
        const auto v = m.read<std::uint32_t>(counter);
        m.charge(10 * sim::kMicrosecond);
        m.write<std::uint32_t>(counter, v + 1);
        lock.release();
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek<std::uint32_t>(counter), 160u);
}

TEST(SpinLock, SpinningStealsCyclesFromLockHomeNode) {
  // Busy-waiting remote processors hammer the lock word's home module; the
  // home node's own local references slow down (Section 2.1).
  auto victim_time = [](int spinners) {
    Machine m(butterfly1(32));
    Kernel k(m);
    sim::PhysAddr cell = m.alloc(0, 8);
    m.poke<std::uint32_t>(cell, 1);  // held: everyone spins
    sim::PhysAddr local = m.alloc(0, 64);
    Time t = 0;
    k.create_process(0, [&m, local, &t] {
      const Time t0 = m.now();
      for (int i = 0; i < 500; ++i) (void)m.read<std::uint32_t>(local);
      t = m.now() - t0;
    });
    for (int s = 1; s <= spinners; ++s) {
      k.create_process(s, [&m, cell] {
        SpinLock lock(m, cell, sim::kMicrosecond);
        for (int i = 0; i < 400; ++i) {
          if (lock.try_acquire()) lock.release();
          m.charge(sim::kMicrosecond);
        }
      });
    }
    m.run();
    return t;
  };
  EXPECT_GT(victim_time(20), 2 * victim_time(0));
}

TEST(DualQueue, TimedDequeueReturnsDataWhenAvailable) {
  Machine m(butterfly1(2));
  Kernel k(m);
  bool got = false;
  std::uint32_t v = 0;
  k.create_process(0, [&] {
    const Oid dq = k.make_dual_queue();
    k.dq_enqueue(dq, 31);
    got = k.dq_dequeue_for(dq, 10 * sim::kMillisecond, &v);
  });
  m.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(v, 31u);
}

TEST(DualQueue, TimedDequeueTimesOutOnEmptyQueue) {
  Machine m(butterfly1(2));
  Kernel k(m);
  bool got = true;
  Time woke = 0;
  k.create_process(0, [&] {
    const Oid dq = k.make_dual_queue();
    std::uint32_t v = 0;
    got = k.dq_dequeue_for(dq, 8 * sim::kMillisecond, &v);
    woke = m.now();
  });
  m.run();
  EXPECT_FALSE(got);
  EXPECT_GE(woke, 8 * sim::kMillisecond);
  EXPECT_FALSE(m.deadlocked());
}

TEST(DualQueue, TimedDequeueWokenByLatePost) {
  Machine m(butterfly1(2));
  Kernel k(m);
  bool got = false;
  std::uint32_t v = 0;
  Oid dq = kNoObject;
  k.create_process(0, [&] {
    dq = k.make_dual_queue();
    got = k.dq_dequeue_for(dq, 60 * sim::kMillisecond, &v);
  });
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    k.dq_enqueue(dq, 9);
  });
  m.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(v, 9u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(DualQueue, StaleTimerAfterDeliveryDoesNotCorruptLaterWaits) {
  // Deliver just before the timeout fires, then reuse the process in a
  // second timed wait that outlives the first (stale) timer event.  The
  // generation counter must keep the old timer from waking the new wait.
  Machine m(butterfly1(2));
  Kernel k(m);
  std::vector<std::pair<bool, std::uint32_t>> results;
  Oid dq = kNoObject;
  k.create_process(0, [&] {
    dq = k.make_dual_queue();
    std::uint32_t v = 0;
    const bool a = k.dq_dequeue_for(dq, 10 * sim::kMillisecond, &v);
    results.push_back({a, v});
    v = 0;
    const bool b = k.dq_dequeue_for(dq, 50 * sim::kMillisecond, &v);
    results.push_back({b, v});
  });
  k.create_process(1, [&] {
    k.delay(9 * sim::kMillisecond);  // just under the first deadline
    k.dq_enqueue(dq, 1);
    k.delay(30 * sim::kMillisecond);
    k.dq_enqueue(dq, 2);
  });
  m.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::pair<bool, std::uint32_t>{true, 1}));
  EXPECT_EQ(results[1], (std::pair<bool, std::uint32_t>{true, 2}));
  EXPECT_FALSE(m.deadlocked());
}

TEST(Kill, KilledProcessReleasesItsDualQueueWaiterSlot) {
  // A process blocked in dq_dequeue dies with its node; a later enqueue
  // must not hand the datum to the corpse.
  sim::FaultPlan plan;
  plan.kill(1, 5 * sim::kMillisecond);
  Machine m(butterfly1(2), plan);
  Kernel k(m);
  std::uint32_t got = 0;
  Oid dq = kNoObject;
  k.create_process(0, [&] {
    dq = k.make_dual_queue();
    k.delay(20 * sim::kMillisecond);
    k.dq_enqueue(dq, 77);
    k.delay(5 * sim::kMillisecond);
    std::uint32_t v = 0;
    if (k.dq_try_dequeue(dq, &v)) got = v;
  });
  k.create_process(1, [&] {
    k.delay(sim::kMillisecond);
    (void)k.dq_dequeue(dq);  // blocked here when node 1 dies at 5 ms
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  // The datum survived: the dead waiter was skipped and the data queued.
  EXPECT_EQ(got, 77u);
  EXPECT_GE(k.killed_processes(), 1u);
}

TEST(Kill, CreateProcessOnDeadNodeThrows) {
  sim::FaultPlan plan;
  plan.kill(1, sim::kMillisecond);
  Machine m(butterfly1(2), plan);
  Kernel k(m);
  std::uint32_t err = kThrowNone;
  k.create_process(0, [&] {
    k.delay(10 * sim::kMillisecond);
    err = static_cast<std::uint32_t>(
        k.catch_block([&] { (void)k.create_process(1, [] {}); }));
  });
  m.run();
  EXPECT_EQ(err, static_cast<std::uint32_t>(kThrowNodeDead));
  EXPECT_FALSE(m.deadlocked());
}

// A timeout shorter than the context-switch charge expires during
// block_self()'s charge, while the process still runs.  The timer must
// count that wait as live and cancel the block, not drop itself as stale
// and leave the process blocked forever.
TEST(DualQueue, TimeoutShorterThanTheSwitchChargeStillExpires) {
  const sim::MachineConfig cfg = butterfly1(2);
  ASSERT_LT(50 * sim::kMicrosecond, cfg.proc_switch_ns);
  Machine m(cfg);
  Kernel k(m);
  bool got = true;
  Time start = 0, woke = 0;
  k.create_process(0, [&] {
    const Oid dq = k.make_dual_queue();
    std::uint32_t v = 0;
    start = m.now();
    got = k.dq_dequeue_for(dq, 50 * sim::kMicrosecond, &v);
    woke = m.now();
  });
  m.run();
  EXPECT_FALSE(got);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(woke - start, cfg.dq_dequeue_ns + cfg.proc_switch_ns);
}

// --- Dual-queue storage (SmallFifo) through the kernel ---------------------

// A datum handed to a process that dies before consuming it goes back to
// the head of its queue (push_front), ahead of data posted after it.
TEST(DualQueue, DatumOfADyingCourierReturnsToTheHead) {
  sim::FaultPlan plan;
  plan.kill(1, 10 * sim::kMillisecond);
  Machine m(butterfly1(2), plan);
  Kernel k(m);
  const Oid dq = k.make_dual_queue();
  std::vector<std::uint32_t> drained;
  k.create_process(1, [&] { (void)k.dq_dequeue(dq); });  // the courier
  // Holds node 1's CPU, so the courier is handed 5 but never runs again.
  k.create_process(1, [&] { m.charge(50 * sim::kMillisecond); });
  k.create_process(0, [&] {
    k.delay(2 * sim::kMillisecond);
    for (std::uint32_t d : {5u, 6u, 7u}) k.dq_enqueue(dq, d);
    EXPECT_EQ(k.dq_depth(dq), 2u);
    k.delay(20 * sim::kMillisecond);  // node 1 dies meanwhile
    std::uint32_t v = 0;
    while (k.dq_try_dequeue(dq, &v)) drained.push_back(v);
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(k.killed_processes(), 2u);
  EXPECT_EQ(drained, (std::vector<std::uint32_t>{5, 6, 7}));
}

// More waiters and more data than the inline slots hold, with the ring
// wrapped when it grows: FIFO order throughout.
TEST(DualQueue, WaitersAndDataSpillPastTheInlineSlotsInOrder) {
  Machine m(butterfly1(2));
  Kernel k(m);
  const Oid dq = k.make_dual_queue();
  constexpr std::uint32_t kWaiters = 10;
  std::vector<std::uint32_t> got(kWaiters, 0);
  for (std::uint32_t i = 0; i < kWaiters; ++i)
    k.create_process(1, [&, i] { got[i] = k.dq_dequeue(dq); });
  std::vector<std::uint32_t> drained;
  k.create_process(0, [&] {
    k.delay(5 * sim::kMillisecond);
    for (std::uint32_t i = 0; i < kWaiters; ++i) k.dq_enqueue(dq, 100 + i);
    std::uint32_t v = 0;
    for (std::uint32_t d = 0; d < 3; ++d) k.dq_enqueue(dq, d);
    for (int n = 0; n < 2; ++n) {
      ASSERT_TRUE(k.dq_try_dequeue(dq, &v));
      drained.push_back(v);
    }
    for (std::uint32_t d = 3; d < 20; ++d) k.dq_enqueue(dq, d);
    EXPECT_EQ(k.dq_depth(dq), 18u);
    while (k.dq_try_dequeue(dq, &v)) drained.push_back(v);
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  for (std::uint32_t i = 0; i < kWaiters; ++i) EXPECT_EQ(got[i], 100 + i);
  std::vector<std::uint32_t> want(20);
  for (std::uint32_t d = 0; d < 20; ++d) want[d] = d;
  EXPECT_EQ(drained, want);
}

// Waiters leave the middle of the queue by value: a killed one and a timed
// out one.  The posts then go to the waiters on either side, in order.
TEST(DualQueue, KilledAndTimedOutWaitersLeaveTheMiddleOfTheQueue) {
  sim::FaultPlan plan;
  plan.kill(2, 3 * sim::kMillisecond);
  Machine m(butterfly1(6), plan);
  Kernel k(m);
  const Oid dq = k.make_dual_queue();
  std::vector<std::uint32_t> got(4, 0);
  bool timed_wait = true;
  k.create_process(1, [&] { got[0] = k.dq_dequeue(dq); });
  k.create_process(2, [&] { got[1] = k.dq_dequeue(dq); });  // killed
  k.create_process(3, [&] {
    timed_wait = k.dq_dequeue_for(dq, 2 * sim::kMillisecond, &got[2]);
    k.delay(10 * sim::kMillisecond);  // alive, but no longer waiting
  });
  k.create_process(4, [&] { got[3] = k.dq_dequeue(dq); });
  k.create_process(0, [&] {
    k.delay(5 * sim::kMillisecond);
    k.dq_enqueue(dq, 11);
    k.dq_enqueue(dq, 12);
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_FALSE(timed_wait);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{11, 0, 0, 12}));
  EXPECT_EQ(k.dq_depth(dq), 0u);
}

// Under schedule exploration a post goes to the highest-priority waiter,
// erased from wherever it sits; every datum still reaches exactly one
// waiter.
TEST(DualQueue, ExplorationPicksWaitersFromAnywhereAndLosesNone) {
  constexpr std::uint32_t kWaiters = 6;
  int reordered = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Machine m(butterfly1(kWaiters + 1));
    Kernel k(m);
    k.set_schedule_exploration(seed);
    const Oid dq = k.make_dual_queue();
    std::vector<std::uint32_t> got(kWaiters, 0);
    for (std::uint32_t i = 0; i < kWaiters; ++i)
      k.create_process(1 + i, [&, i] { got[i] = k.dq_dequeue(dq); });
    k.create_process(0, [&] {
      k.delay(5 * sim::kMillisecond);
      for (std::uint32_t i = 0; i < kWaiters; ++i) k.dq_enqueue(dq, i);
    });
    m.run();
    ASSERT_FALSE(m.deadlocked()) << "seed " << seed;
    std::vector<std::uint32_t> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < kWaiters; ++i)
      ASSERT_EQ(sorted[i], i) << "seed " << seed;
    for (std::uint32_t i = 0; i < kWaiters; ++i)
      if (got[i] != i) {
        ++reordered;
        break;
      }
  }
  EXPECT_GT(reordered, 0);
}

}  // namespace
}  // namespace bfly::chrys
