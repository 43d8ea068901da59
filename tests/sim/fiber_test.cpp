#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdint>
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
  EXPECT_EQ(m.blocked_fibers().size(), 1u);
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
