#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

TEST(Fiber, RunsBodyOnResume) {
  bool ran = false;
  Fiber f([&] { ran = true; }, 64 * 1024);
  EXPECT_FALSE(ran);
  f.resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  int step = 0;
  Fiber f(
      [&] {
        step = 1;
        Fiber::yield_to_engine();
        step = 2;
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(step, 1);
  EXPECT_EQ(f.state(), Fiber::State::kBlocked);
  f.resume();
  EXPECT_EQ(step, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); }, 64 * 1024);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackUse) {
  // Recursion to a depth that would smash a tiny stack must work with the
  // configured stack size.
  std::function<int(int)> fib = [&](int n) {
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
  };
  int result = 0;
  Fiber f([&] { result = fib(18); }, 192 * 1024);
  f.resume();
  EXPECT_EQ(result, 2584);
}

TEST(Fiber, FloatingPointEnvironmentIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int inside_after_resume = -1;
  Fiber f(
      [&] {
        std::fesetround(FE_UPWARD);
        Fiber::yield_to_engine();
        inside_after_resume = std::fegetround();
        std::fesetround(FE_TONEAREST);
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  f.resume();
  EXPECT_EQ(inside_after_resume, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_TRUE(f.finished());
}

// Records whether an alignas(16) local at `depth` further frames down is
// 16-byte aligned.  The address goes through a volatile so the compiler
// cannot assume the alignment it was asked for.
[[gnu::noinline]] bool aligned_at_depth(int depth) {
  alignas(16) char probe[16] = {};
  volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(probe);
  const bool here = addr % 16 == 0;
  return depth == 0 ? here : here && aligned_at_depth(depth - 1);
}

TEST(Fiber, StackIsSixteenByteAlignedAtEntryAndAfterResume) {
  std::vector<bool> checks;
  Fiber f(
      [&] {
        for (int round = 0; round < 3; ++round) {
          for (int depth = 0; depth < 4; ++depth)
            checks.push_back(aligned_at_depth(depth));
          Fiber::yield_to_engine();
        }
      },
      64 * 1024);
  while (!f.finished()) f.resume();
  ASSERT_EQ(checks.size(), 12u);
  for (bool ok : checks) EXPECT_TRUE(ok);
}

TEST(Fiber, ExceptionThrownAfterYieldIsCaughtInTheSameBody) {
  std::string caught;
  Fiber f(
      [&] {
        try {
          Fiber::yield_to_engine();
          throw std::runtime_error("after yield");
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
      },
      64 * 1024);
  f.resume();
  EXPECT_TRUE(caught.empty());
  f.resume();
  EXPECT_EQ(caught, "after yield");
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, LocalsSurviveInterleavedRoundRobinSwitches) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 1000;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> mismatches(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&mismatches, i] {
          std::uint64_t counter = 0;
          double scaled = i * 0.5;
          std::array<int, 8> pattern{};
          pattern.fill(i);
          for (int r = 0; r < kRounds; ++r) {
            Fiber::yield_to_engine();
            if (counter != static_cast<std::uint64_t>(r) ||
                scaled != i * 0.5 + r ||
                pattern[r % 8] != i + r / 8)
              ++mismatches[i];
            ++counter;
            scaled += 1.0;
            ++pattern[r % 8];
          }
        },
        64 * 1024));
  }
  for (int r = 0; r <= kRounds; ++r)
    for (auto& f : fibers) f->resume();
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_TRUE(fibers[i]->finished()) << i;
    EXPECT_EQ(mismatches[i], 0) << i;
  }
}

// A -> B -> C -> engine without the engine in between: each switch_to
// blocks the caller, runs the target and moves current() with it.
TEST(Fiber, FreedStackIsReusedByTheNextFiberOfItsSize) {
  // A fiber's locals sit at the same depth of whatever stack it runs on, so
  // equal addresses mean the same stack.  A blocked fiber's stack is reused
  // too (destroying a live fiber abandons it), and neither heap allocations
  // nor a fiber of another size take a freed stack.
  auto local_address = [](std::size_t stack_bytes, bool block) {
    std::uintptr_t at = 0;
    {
      Fiber f(
          [&] {
            volatile int local = 0;
            at = reinterpret_cast<std::uintptr_t>(&local);
            if (block) Fiber::yield_to_engine();
          },
          stack_bytes);
      f.resume();
    }
    return at;
  };
  const std::uintptr_t first = local_address(96 * 1024, true);
  EXPECT_EQ(local_address(96 * 1024, false), first);
  EXPECT_EQ(local_address(96 * 1024, false), first);
  const std::vector<char> heap_block(96 * 1024, 1);
  (void)local_address(80 * 1024, false);
  EXPECT_EQ(local_address(96 * 1024, false), first)
      << "the freed stack must stay reserved for the next fiber of its size";
}

TEST(Fiber, SwitchToChainsFibersWithoutTheEngine) {
  using S = Fiber::State;
  std::unique_ptr<Fiber> a, b, c;
  std::vector<std::string> log;
  auto states = [&] {
    std::string out;
    for (Fiber* f : {a.get(), b.get(), c.get()}) {
      switch (f->state()) {
        case S::kCreated: out += 'c'; break;
        case S::kRunnable: out += 'n'; break;
        case S::kRunning: out += 'R'; break;
        case S::kBlocked: out += 'b'; break;
        case S::kFinished: out += 'f'; break;
      }
    }
    return out;
  };
  auto step = [&](const char* where, Fiber* expect_current) {
    EXPECT_EQ(Fiber::current(), expect_current) << where;
    log.push_back(std::string(where) + ":" + states());
  };
  a = std::make_unique<Fiber>(
      [&] {
        step("a1", a.get());
        Fiber::switch_to(b.get());
        step("a2", a.get());
      },
      64 * 1024);
  b = std::make_unique<Fiber>(
      [&] {
        step("b1", b.get());
        Fiber::switch_to(c.get());
        step("b2", b.get());
      },
      64 * 1024);
  c = std::make_unique<Fiber>(
      [&] {
        step("c1", c.get());
        Fiber::yield_to_engine();
        step("c2", c.get());
        Fiber::switch_to(a.get());
        step("c3", c.get());
      },
      64 * 1024);
  a->resume();  // a -> b -> c -> engine
  step("e1", nullptr);
  b->resume();  // b finishes -> engine
  step("e2", nullptr);
  c->resume();  // c -> a, a finishes -> engine
  step("e3", nullptr);
  c->resume();  // c finishes -> engine
  step("e4", nullptr);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "a1:Rnn", "b1:bRn", "c1:bbR", "e1:bbb", "b2:bRb",
                     "e2:bfb", "c2:bfR", "a2:Rfb", "e3:ffb", "c3:ffR",
                     "e4:fff"}));
}

TEST(MachineFiber, ChargeAdvancesTime) {
  Machine m(butterfly1(4));
  Time end = 0;
  m.spawn(0, [&] {
    m.charge(1000);
    m.charge(500);
    end = m.now();
  });
  m.run();
  EXPECT_EQ(end, 1500u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(MachineFiber, ParkAndWakeup) {
  Machine m(butterfly1(4));
  Fiber* sleeper = nullptr;
  Time woke_at = 0;
  sleeper = m.spawn(0, [&] {
    m.park();
    woke_at = m.now();
  });
  m.spawn(1, [&] {
    m.charge(5000);
    m.wakeup(sleeper);
  });
  m.run();
  EXPECT_EQ(woke_at, 5000u);
}

TEST(MachineFiber, UnwokenParkIsDeadlock) {
  Machine m(butterfly1(2));
  m.spawn(0, [&] { m.park(); });
  m.run();
  EXPECT_TRUE(m.deadlocked());
  EXPECT_EQ(m.live_fibers(), 1u);
}

// on_finish fires exactly once per fiber however it ends: a normal exit,
// a kill while parked, a kill before it ever ran, and abandon().  Like
// every hook it is uncharged.
class FinishCounter final : public Probe {
 public:
  explicit FinishCounter(Machine& m) : m_(m) { m_.attach(this); }
  ~FinishCounter() override { m_.detach(this); }
  void on_finish(Fiber* f) override { ++finished[f->spawn_index()]; }
  std::map<std::uint64_t, int> finished;  // spawn index -> reports

 private:
  Machine& m_;
};

TEST(MachineFiber, OnFinishFiresOncePerFiberHoweverItEnds) {
  Machine m(butterfly1(4));
  FinishCounter probe(m);
  m.spawn(0, [&] { m.charge(100); });  // normal exit
  m.spawn(1, [&] { m.park(); });        // killed while parked
  m.spawn_parked(1, [] {});             // killed before it ever ran
  Fiber* stuck = m.spawn(2, [&] { m.park(); });  // abandoned
  m.kill_node(1, kMillisecond);
  m.run();
  EXPECT_EQ(probe.finished,
            (std::map<std::uint64_t, int>{{0, 1}, {1, 1}, {2, 1}}));
  ASSERT_EQ(m.live_fibers(), 1u);
  m.abandon(stuck);
  EXPECT_EQ(probe.finished,
            (std::map<std::uint64_t, int>{{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
  EXPECT_EQ(m.live_fibers(), 0u);
  EXPECT_EQ(m.hook_charges(), 0u);
}

// A kill unwinds its victims in spawn order, and one victim's unwind may
// reap another: here a destructor on the first victim's stack abandons the
// second, parked on the same node.  The kill must skip the reaped victim
// (under ASan, touching it is a heap-use-after-free) and still reach the
// third.
TEST(MachineFiber, KillSkipsAVictimThatAnEarlierUnwindReaped) {
  Machine m(butterfly1(4));
  FinishCounter probe(m);
  struct AbandonOnUnwind {
    Machine& m;
    Fiber*& f;
    ~AbandonOnUnwind() { m.abandon(f); }
  };
  Fiber* second = nullptr;
  bool second_ran_on = false;
  m.spawn(1, [&] {
    AbandonOnUnwind guard{m, second};
    m.park();
  });
  second = m.spawn(1, [&] {
    m.park();
    second_ran_on = true;
  });
  m.spawn(1, [&] { m.park(); });
  m.kill_node(1, kMillisecond);
  m.run();
  EXPECT_FALSE(second_ran_on);
  EXPECT_EQ(probe.finished,
            (std::map<std::uint64_t, int>{{0, 1}, {1, 1}, {2, 1}}));
  EXPECT_EQ(m.live_fibers(), 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(MachineFiber, ManyFibersInterleaveDeterministically) {
  Machine m(butterfly1(16));
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    m.spawn(i, [&, i] {
      m.charge(100 * (i % 4));
      order.push_back(i);
    });
  }
  m.run();
  ASSERT_EQ(order.size(), 16u);
  // Sorted by (charge time, spawn order): all i%4==0 first, etc.
  std::vector<int> expect;
  for (int r = 0; r < 4; ++r)
    for (int i = r; i < 16; i += 4) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

// A fiber reached by a handoff (not by the engine) that then finishes
// switches back to the engine, which must reap *it*, not the fiber the
// engine resumed: its stack and its captures are released at once.
TEST(MachineFiber, FiberFinishingAfterAHandoffIsReaped) {
  for (bool fast : {true, false}) {
    MachineConfig cfg = butterfly1(2);
    cfg.host_fastpath = fast;
    Machine m(cfg);
    auto token = std::make_shared<int>(7);
    std::size_t live_after = 99;
    long uses_after = 99;
    m.spawn(0, [&] {
      m.charge(100);  // B's start at t=50 is next: hand off to B
      live_after = m.live_fibers();
      uses_after = token.use_count();
    });
    m.spawn(
        1, [&m, token] { m.charge(10); }, "b", 50);
    m.run();
    EXPECT_EQ(live_after, 1u) << fast;
    EXPECT_EQ(uses_after, 1) << fast;
    EXPECT_EQ(m.live_fibers(), 0u);
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(token.use_count(), 1);
  }
}

// A kill lands while node 1's fibers hand off among themselves and to a
// survivor: every victim unwinds (destructors run) and is reaped, whether
// its doomed resume is reached by the engine or by a handoff.
TEST(MachineFiber, KillMidHandoffChainUnwindsAndReapsEveryVictim) {
  struct Guard {
    int* n;
    ~Guard() { ++*n; }
  };
  Machine m(butterfly1(2));
  int unwound = 0;
  for (int i = 0; i < 3; ++i)
    m.spawn(1, [&m, &unwound, i] {
      Guard g{&unwound};
      while (true) m.charge(3 + static_cast<Time>(i));
    });
  m.spawn(1, [&m, &unwound] {
    Guard g{&unwound};
    m.park();
  });
  int survivor_rounds = 0;
  m.spawn(0, [&] {
    for (int r = 0; r < 100; ++r) {
      m.charge(2);
      ++survivor_rounds;
    }
  });
  m.kill_node(1, 50);
  m.run();
  EXPECT_EQ(unwound, 4);
  EXPECT_EQ(survivor_rounds, 100);
  EXPECT_EQ(m.live_fibers(), 0u);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(m.dead_nodes(), 1u);
}

TEST(MachineFiber, SleepUntil) {
  Machine m(butterfly1(2));
  Time t = 0;
  m.spawn(0, [&] {
    m.sleep_until(9000);
    t = m.now();
  });
  m.run();
  EXPECT_EQ(t, 9000u);
}

}  // namespace
}  // namespace bfly::sim
