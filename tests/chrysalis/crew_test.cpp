#include "chrysalis/crew.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace bfly::chrys {
namespace {

using sim::butterfly1;
using sim::kMillisecond;
using sim::Machine;
using sim::Time;

TEST(Crew, JoinWaitsForMembersStartedByMembers) {
  Machine m(butterfly1(4));
  Kernel k(m);
  std::uint32_t ran = 0;
  std::uint32_t size = 0;
  k.create_process(0, [&] {
    Crew crew(k);
    crew.start(1, [&] {
      for (sim::NodeId n : {2u, 3u})
        crew.start(n, [&] {
          k.delay(10 * kMillisecond);
          ++ran;
        }, "leaf");
      ++ran;
    }, "root");
    crew.join();
    EXPECT_EQ(ran, 3u);
    size = crew.size();
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(size, 3u);
}

TEST(CrewFaults, MemberOnADeadNodeIsLostFromTheStart) {
  Machine m(butterfly1(4));
  Kernel k(m);
  m.kill_node(2, 1);
  std::vector<std::uint32_t> ended;
  bool joined = false;
  k.create_process(0, [&] {
    Crew crew(k, [&](std::uint32_t i) { ended.push_back(i); });
    EXPECT_TRUE(crew.start(1, [] {}, "a"));
    EXPECT_FALSE(crew.start(2, [] {}, "b"));
    EXPECT_EQ(crew.lost(), 1u);
    crew.join();
    EXPECT_EQ(crew.size(), 2u);
    joined = true;
  });
  m.run();
  EXPECT_TRUE(joined);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(ended, (std::vector<std::uint32_t>{1, 0}));
}

TEST(CrewFaults, ThrowingBodyIsCountedFaultedAndStillEnds) {
  Machine m(butterfly1(4));
  Kernel k(m);
  std::uint32_t ends = 0;
  std::uint32_t faulted = 0;
  k.create_process(0, [&] {
    Crew crew(k, [&](std::uint32_t) { ++ends; });
    crew.start(1, [&] { k.throw_err(kThrowUser); }, "thrower");
    crew.join();
    faulted = crew.faulted();
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(faulted, 1u);
}

TEST(CrewFaults, AnyOtherThrowPropagatesAndStartsNoMember) {
  // Inside a partition, creating outside the fence throws kThrowBadObject:
  // not a lost member but the caller's error.
  Machine m(butterfly1(8));
  Kernel k(m);
  int code = 0;
  const auto p = k.create_partition({0, 1});
  k.enter_partition(p, 0, [&] {
    Crew crew(k);
    code = k.catch_block([&] { crew.start(5, [] {}, "outside"); });
    EXPECT_EQ(crew.size(), 0u);
    EXPECT_EQ(crew.lost(), 0u);
    crew.join();
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(code, kThrowBadObject);
}

// A kill that lands inside a member's own charged token post: the member's
// body has ended, so it gets one on_end call and its node's crash
// broadcast posts its one token.  A second token would let join() return
// before the other member ends.
TEST(CrewFaults, KillInsideTheTokenPostEndsTheMemberOnce) {
  struct Result {
    Time body_end = 0;
    std::uint32_t ends = 0;
    bool other_done_at_join = false;
    std::uint32_t lost = 0;
  };
  const auto run = [](std::optional<Time> kill_at) {
    Machine m(butterfly1(4));
    Kernel k(m);
    if (kill_at) m.kill_node(1, *kill_at);
    Result r;
    bool other_done = false;
    k.create_process(0, [&] {
      Crew crew(k, [&](std::uint32_t i) { r.ends += i == 0; });
      crew.start(1, [&] {
        k.delay(kMillisecond);
        r.body_end = m.now();
      }, "short");
      crew.start(2, [&] {
        k.delay(50 * kMillisecond);
        other_done = true;
      }, "long");
      crew.join();
      r.other_done_at_join = other_done;
      r.lost = crew.lost();
    });
    m.run();
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(k.killed_processes(), kill_at ? 1u : 0u);
    return r;
  };
  const Result clean = run(std::nullopt);
  ASSERT_GT(clean.body_end, 0);
  const Time at = clean.body_end + butterfly1(4).dq_enqueue_ns / 2;
  const Result r = run(at);
  EXPECT_EQ(r.body_end, clean.body_end);
  EXPECT_EQ(r.ends, 1u);
  EXPECT_TRUE(r.other_done_at_join);
  EXPECT_EQ(r.lost, 0u);  // the body ended; only the token was owed
}

TEST(CrewFaults, SilentDeathWithoutABroadcastBlocksTheJoin) {
  // No oracle: a silent kill that no detector broadcasts leaves the crew
  // waiting for the member's token.
  Machine m(butterfly1(4));
  Kernel k(m);
  m.kill_node(1, 10 * kMillisecond, /*silent=*/true);
  bool joined = false;
  k.create_process(0, [&] {
    Crew crew(k);
    crew.start(1, [&] { k.delay(50 * kMillisecond); }, "member");
    crew.join();
    joined = true;
  });
  m.run();
  EXPECT_FALSE(joined);
  EXPECT_TRUE(m.deadlocked());
}

}  // namespace
}  // namespace bfly::chrys
