#include "m2/coroutines.hpp"

#include <gtest/gtest.h>

namespace bfly::m2 {
namespace {

using sim::butterfly1;
using sim::Machine;

void in_process(std::function<void(chrys::Kernel&)> body) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  k.create_process(0, [&] { body(k); });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Coroutines, ExplicitTransferPingPong) {
  in_process([](chrys::Kernel& k) {
    CoroutineSystem cs(k);
    std::vector<int> trace;
    Coroutine* b = nullptr;
    Coroutine* a = cs.new_coroutine([&] {
      trace.push_back(1);
      cs.transfer(b);
      trace.push_back(3);
      cs.transfer(b);
    });
    b = cs.new_coroutine([&] {
      trace.push_back(2);
      cs.transfer(a);
      trace.push_back(4);
      // falls off: control returns to main
    });
    cs.transfer(a);
    trace.push_back(5);
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(b->finished());
    EXPECT_FALSE(a->finished());  // a is suspended mid-body, never resumed
  });
}

TEST(Coroutines, GeneratorPattern) {
  // The classic Modula-2 idiom: a producer coroutine yielding values to
  // main by explicit transfer.
  in_process([](chrys::Kernel& k) {
    CoroutineSystem cs(k);
    int value = 0;
    std::vector<int> got;
    Coroutine* gen = cs.new_coroutine([&] {
      for (int i = 1; i <= 5; ++i) {
        value = i * i;
        cs.transfer(cs.main());
      }
    });
    for (int i = 0; i < 5; ++i) {
      cs.transfer(gen);
      got.push_back(value);
    }
    EXPECT_EQ(got, (std::vector<int>{1, 4, 9, 16, 25}));
  });
}

TEST(Coroutines, TransferToFinishedThrows) {
  in_process([](chrys::Kernel& k) {
    CoroutineSystem cs(k);
    Coroutine* c = cs.new_coroutine([] {});
    cs.transfer(c);  // runs to completion, back to main
    EXPECT_TRUE(c->finished());
    const int code = k.catch_block([&] { cs.transfer(c); });
    EXPECT_EQ(code, chrys::kThrowBadObject);
  });
}

TEST(Coroutines, TransfersArePseudoParallelism) {
  // Coroutine transfers advance simulated time only by the transfer cost:
  // far cheaper than even Ant Farm's scheduled switches, and no
  // parallelism whatsoever.
  in_process([](chrys::Kernel& k) {
    CoroutineSystem cs(k);
    Coroutine* idle = cs.new_coroutine([&] {
      while (true) cs.transfer(cs.main());
    });
    const sim::Time t0 = k.now();
    for (int i = 0; i < 50; ++i) cs.transfer(idle);
    const sim::Time per = (k.now() - t0) / 100;  // 2 transfers per loop
    EXPECT_LT(per, 20 * sim::kMicrosecond);
    EXPECT_EQ(cs.transfers(), 100u);
  });
}

TEST(Coroutines, ManyCoroutinesRoundRobin) {
  in_process([](chrys::Kernel& k) {
    CoroutineSystem cs(k);
    constexpr int kN = 40;
    int sum = 0;
    std::vector<Coroutine*> cs_list;
    for (int i = 0; i < kN; ++i) {
      cs_list.push_back(cs.new_coroutine([&cs, &sum, i] {
        sum += i;
        cs.transfer(cs.main());  // yield once
        sum += 1000;
      }));
    }
    for (Coroutine* c : cs_list) cs.transfer(c);  // first halves
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
    for (Coroutine* c : cs_list) cs.transfer(c);  // second halves
    EXPECT_EQ(sum, kN * (kN - 1) / 2 + kN * 1000);
  });
}

TEST(Coroutines, NodeKillWhileMainChargesWithACoroutineParked) {
  // The kill unwinds the parked coroutine first (main's resume is already
  // queued), and the machine frees its fiber.  Main unwinds next, and
  // ~CoroutineSystem must not abandon the freed fiber.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  bool parked = false;
  bool coroutine_unwound = false;
  bool main_unwound = false;
  k.create_process(0, [&] {
    struct Unwound {
      bool& flag;
      ~Unwound() { flag = true; }
    } main_guard{main_unwound};
    CoroutineSystem cs(k);
    Coroutine* c = cs.new_coroutine([&] {
      Unwound guard{coroutine_unwound};
      cs.transfer(cs.main());  // parks here for good
    });
    cs.transfer(c);
    parked = true;
    for (;;) m.charge(sim::kMillisecond);
  });
  m.kill_node(0, 50 * sim::kMillisecond);
  m.run();
  EXPECT_TRUE(parked);
  EXPECT_TRUE(coroutine_unwound);
  EXPECT_TRUE(main_unwound);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(m.live_fibers(), 0u);
}

}  // namespace
}  // namespace bfly::m2
