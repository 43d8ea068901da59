// Deterministic fault injection at the machine level: node kills, transient
// memory faults, and switch packet faults, all reproducible from
// (config, FaultPlan) alone.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

TEST(FaultPlan, EmptyPlanChangesNothing) {
  // Two machines running the same program, one with a default (empty)
  // FaultPlan passed explicitly: identical elapsed time and stats.
  auto run = [](bool with_plan) {
    Machine m = with_plan ? Machine(butterfly1(8), FaultPlan{})
                          : Machine(butterfly1(8));
    std::uint32_t sum = 0;
    const PhysAddr a = m.alloc(3, 64);
    m.poke<std::uint32_t>(a, 5);
    m.spawn(0, [&] {
      for (int i = 0; i < 50; ++i) sum += m.read<std::uint32_t>(a);
      m.write<std::uint32_t>(a, 7);
    });
    const Time t = m.run();
    return std::pair<Time, std::uint32_t>(t, sum);
  };
  const auto plain = run(false);
  const auto planned = run(true);
  EXPECT_EQ(plain.first, planned.first);
  EXPECT_EQ(plain.second, planned.second);
}

TEST(FaultPlan, KilledNodeStopsItsFibersWithoutDeadlock) {
  FaultPlan plan;
  plan.kill(1, 5 * kMillisecond);
  Machine m(butterfly1(4), plan);
  int victim_steps = 0;
  int survivor_steps = 0;
  m.spawn(1, [&] {
    for (int i = 0; i < 100; ++i) {
      m.charge(kMillisecond);
      ++victim_steps;
    }
  });
  m.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) {
      m.charge(kMillisecond);
      ++survivor_steps;
    }
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(survivor_steps, 100);
  EXPECT_LT(victim_steps, 100);
  EXPECT_FALSE(m.node_alive(1));
  EXPECT_TRUE(m.node_alive(0));
  EXPECT_EQ(m.dead_nodes(), 1u);
}

TEST(FaultPlan, ReferencesToADeadNodeThrow) {
  FaultPlan plan;
  plan.kill(2, kMillisecond);
  Machine m(butterfly1(4), plan);
  const PhysAddr remote = m.alloc(2, 64);
  bool threw = false;
  NodeId reported = 99;
  m.spawn(0, [&] {
    m.charge(10 * kMillisecond);  // node 2 is gone by now
    try {
      (void)m.read<std::uint32_t>(remote);
    } catch (const NodeDeadError& e) {
      threw = true;
      reported = e.node();
    }
  });
  m.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(reported, 2u);
  EXPECT_GE(m.stats().dead_node_refs, 1u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(FaultPlan, AllocOnDeadNodeThrows) {
  FaultPlan plan;
  plan.kill(3, kMillisecond);
  Machine m(butterfly1(4), plan);
  bool threw = false;
  m.spawn(0, [&] {
    m.charge(10 * kMillisecond);
    try {
      (void)m.alloc(3, 64);
    } catch (const NodeDeadError&) {
      threw = true;
    }
  });
  m.run();
  EXPECT_TRUE(threw);
}

TEST(FaultPlan, TransientMemoryFaultsAreDeterministic) {
  auto run = [] {
    FaultPlan plan;
    plan.mem_fault_prob = 0.05;
    plan.seed = 1234;
    Machine m(butterfly1(8), plan);
    const PhysAddr a = m.alloc(5, 64);
    std::uint64_t faults_seen = 0;
    m.spawn(0, [&] {
      for (int i = 0; i < 400; ++i) {
        try {
          (void)m.read<std::uint32_t>(a);
        } catch (const MemoryFaultError& e) {
          ++faults_seen;
          EXPECT_EQ(e.node(), 5u);
        }
      }
    });
    const Time t = m.run();
    return std::tuple<std::uint64_t, std::uint64_t, Time>(
        faults_seen, m.stats().mem_faults_injected, t);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(std::get<0>(a), 0u);
  EXPECT_EQ(std::get<0>(a), std::get<1>(a));
  // Same plan, same seed: byte-identical fault pattern and timing.
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, PacketDropsAddRetryLatency) {
  auto elapsed_with = [](double drop_prob) {
    FaultPlan plan;
    plan.packet_drop_prob = drop_prob;
    plan.drop_retry_ns = 200 * kMicrosecond;
    Machine m(butterfly1(8), plan);
    const PhysAddr a = m.alloc(6, 64);
    m.spawn(0, [&] {
      for (int i = 0; i < 300; ++i) (void)m.read<std::uint32_t>(a);
    });
    const Time t = m.run();
    return std::pair<Time, std::uint64_t>(t, m.fabric().packets_dropped());
  };
  const auto faulty = elapsed_with(0.2);
  const auto clean = elapsed_with(0.0);
  EXPECT_GT(faulty.second, 0u);
  EXPECT_EQ(clean.second, 0u);
  EXPECT_GT(faulty.first, clean.first);
}

TEST(FaultPlan, PacketDelaysAddLatencyDeterministically) {
  auto run = [] {
    FaultPlan plan;
    plan.packet_delay_prob = 0.3;
    plan.packet_delay_ns = 100 * kMicrosecond;
    plan.seed = 77;
    Machine m(butterfly1(8), plan);
    const PhysAddr a = m.alloc(4, 64);
    m.spawn(0, [&] {
      for (int i = 0; i < 200; ++i) (void)m.read<std::uint32_t>(a);
    });
    const Time t = m.run();
    return std::pair<Time, std::uint64_t>(t, m.fabric().packets_delayed());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.second, 0u);
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, KillAtTimeZeroIsRejected) {
  // The machine must come up before it can fail: a Time-0 kill is a plan
  // bug, not a fault scenario, and validation says so immediately.
  FaultPlan plan;
  EXPECT_THROW(plan.kill(1, 0), SimError);
  EXPECT_TRUE(plan.node_kills.empty());  // the bad entry was not kept
}

TEST(FaultPlan, KillJustAfterTimeZeroPreventsSpawns) {
  FaultPlan plan;
  plan.kill(1, 1);  // one nanosecond in: before anything can run
  Machine m(butterfly1(4), plan);
  m.spawn(0, [&] { m.charge(kMillisecond); });
  m.run();
  EXPECT_FALSE(m.node_alive(1));
  EXPECT_THROW(m.spawn(1, [] {}), NodeDeadError);
}

TEST(FaultPlan, DuplicateKillOfSameNodeIsRejected) {
  FaultPlan plan;
  plan.kill(2, kMillisecond);
  EXPECT_THROW(plan.kill(2, 5 * kMillisecond), SimError);
  EXPECT_EQ(plan.node_kills.size(), 1u);  // first kill survives
}

TEST(FaultPlan, SilentKillSkipsCrashObserversButNotDeathObservers) {
  FaultPlan plan;
  plan.kill_silent(1, kMillisecond);
  plan.kill(2, 2 * kMillisecond);
  plan.kill_silent(3, 3 * kMillisecond);
  Machine m(butterfly1(4), plan);
  std::vector<NodeId> deaths, crashes;
  (void)m.on_node_death([&](NodeId n) { deaths.push_back(n); });
  const auto cid = m.on_node_crash([&](NodeId n) { crashes.push_back(n); });
  m.spawn(0, [&] { m.charge(10 * kMillisecond); });
  m.run();
  // The simulator always knows (death tier); the machine-check broadcast
  // (crash tier) fires only for the loud kill — nodes 1 and 3 died silently.
  EXPECT_EQ(deaths, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(crashes, (std::vector<NodeId>{2}));
  EXPECT_FALSE(m.node_alive(1));
  EXPECT_FALSE(m.node_alive(2));
  // A failure detector's verdict: broadcasting silent-killed node 1 fires
  // the crash tier once.  A repeat, the already-broadcast loud kill, a live
  // node and a bad id reach nobody.
  m.broadcast_crash(1);
  EXPECT_EQ(crashes, (std::vector<NodeId>{2, 1}));
  m.broadcast_crash(1);
  m.broadcast_crash(2);
  m.broadcast_crash(0);
  m.broadcast_crash(4);
  EXPECT_EQ(crashes, (std::vector<NodeId>{2, 1}));
  EXPECT_TRUE(m.node_alive(0));
  // A removed observer hears no later broadcast.
  m.remove_crash_observer(cid);
  m.broadcast_crash(3);
  EXPECT_EQ(crashes, (std::vector<NodeId>{2, 1}));
}

TEST(FaultPlan, SilentKillStillUnwindsFibers) {
  FaultPlan plan;
  plan.kill_silent(1, 5 * kMillisecond);
  Machine m(butterfly1(4), plan);
  int victim_steps = 0;
  m.spawn(1, [&] {
    for (int i = 0; i < 100; ++i) {
      m.charge(kMillisecond);
      ++victim_steps;
    }
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_LT(victim_steps, 100);
  EXPECT_FALSE(m.node_alive(1));
}

TEST(FaultPlan, RuntimeKillNodeMatchesPlannedKill) {
  // kill_node() arms the same machinery as a planned kill.
  Machine m(butterfly1(4));
  int steps = 0;
  m.kill_node(2, 3 * kMillisecond);
  m.spawn(2, [&] {
    for (int i = 0; i < 10; ++i) {
      m.charge(kMillisecond);
      ++steps;
    }
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_LT(steps, 10);
  EXPECT_FALSE(m.node_alive(2));
}

TEST(FaultPlan, DeathObserversFireOnceInOrder) {
  FaultPlan plan;
  plan.kill(0, kMillisecond);
  plan.kill(3, 2 * kMillisecond);
  Machine m(butterfly1(4), plan);
  std::vector<std::pair<int, NodeId>> calls;
  const auto id1 = m.on_node_death([&](NodeId n) { calls.push_back({1, n}); });
  (void)m.on_node_death([&](NodeId n) { calls.push_back({2, n}); });
  m.spawn(1, [&] { m.charge(10 * kMillisecond); });
  m.run();
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0], (std::pair<int, NodeId>{1, 0}));
  EXPECT_EQ(calls[1], (std::pair<int, NodeId>{2, 0}));
  EXPECT_EQ(calls[2], (std::pair<int, NodeId>{1, 3}));
  EXPECT_EQ(calls[3], (std::pair<int, NodeId>{2, 3}));
  m.remove_death_observer(id1);
}

TEST(FaultPlan, ADeathObserverMayRegisterObserversThatRunInTheSamePass) {
  // Enough registrations from inside the first callback to grow the list
  // past its capacity several times while that callback is running.
  FaultPlan plan;
  plan.kill(2, kMillisecond);
  Machine m(butterfly1(4), plan);
  std::vector<int> calls;
  (void)m.on_node_death([&](NodeId) {
    for (int i = 0; i < 64; ++i)
      (void)m.on_node_death([&calls, i](NodeId) { calls.push_back(i); });
    calls.push_back(-1);
  });
  m.run();
  ASSERT_EQ(calls.size(), 65u);
  EXPECT_EQ(calls.front(), -1);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(calls[i + 1], i);
}

TEST(FaultPlan, BadKillTargetIsRejected) {
  FaultPlan plan;
  plan.kill(9, kMillisecond);  // only 4 nodes
  EXPECT_THROW(Machine(butterfly1(4), plan), SimError);
}

TEST(FaultPlan, SlowWindowsAreValidatedLikeKills) {
  FaultPlan plan;
  // Speed-ups, Time-0 starts, empty and overlapping windows are rejected;
  // the rejected window must not linger in the plan.
  EXPECT_THROW(plan.slow(1, kMillisecond, 2 * kMillisecond, 0.5), SimError);
  EXPECT_THROW(plan.slow(1, 0, kMillisecond, 2.0), SimError);
  EXPECT_THROW(plan.slow(1, 2 * kMillisecond, kMillisecond, 2.0), SimError);
  EXPECT_TRUE(plan.slow_nodes.empty());
  plan.slow(1, kMillisecond, 5 * kMillisecond, 4.0);
  EXPECT_THROW(plan.slow(1, 4 * kMillisecond, 6 * kMillisecond, 2.0),
               SimError);
  EXPECT_EQ(plan.slow_nodes.size(), 1u);
  // Back-to-back windows and other nodes are fine.
  plan.slow(1, 5 * kMillisecond, 6 * kMillisecond, 2.0);
  plan.slow(2, kMillisecond, 2 * kMillisecond, 8.0);
  EXPECT_TRUE(plan.any());
  // A slow target beyond the machine's node count is caught at build time.
  FaultPlan bad;
  bad.slow(9, kMillisecond, 2 * kMillisecond, 2.0);
  EXPECT_THROW(Machine(butterfly1(4), bad), SimError);
}

TEST(FaultPlan, SlowNodeStretchesItsMemoryServiceInWindow) {
  // A remote read against the slowed node's module takes longer inside the
  // window and reverts to the healthy cost after it closes.
  auto timed_read = [](FaultPlan plan, Time start) {
    Machine m(butterfly1(4), plan);
    const PhysAddr a = m.alloc(1, 64);
    Time cost = 0;
    m.spawn(0, [&] {
      m.charge(start);
      const Time t0 = m.now();
      for (int i = 0; i < 32; ++i) (void)m.read<std::uint32_t>(a);
      cost = m.now() - t0;
    });
    m.run();
    return cost;
  };
  FaultPlan slow;
  slow.slow(1, kMillisecond, 100 * kMillisecond, 16.0);
  const Time healthy = timed_read(FaultPlan{}, 2 * kMillisecond);
  const Time in_window = timed_read(slow, 2 * kMillisecond);
  const Time after = timed_read(slow, 200 * kMillisecond);
  EXPECT_GT(in_window, healthy);
  EXPECT_EQ(after, healthy) << "window closed: healthy service again";
}

TEST(FaultPlan, SlowNodeIsDeterministic) {
  auto run_once = [] {
    FaultPlan plan;
    plan.slow(1, kMillisecond, 50 * kMillisecond, 8.0);
    Machine m(butterfly1(4), plan);
    const PhysAddr a = m.alloc(1, 64);
    m.spawn(0, [&] {
      for (int i = 0; i < 64; ++i) (void)m.read<std::uint32_t>(a);
    });
    return m.run();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Switch-level fault domains and partition windows ---------------------

TEST(FaultPlan, PartitionWindowsAreValidatedAtBuildTime) {
  FaultPlan plan;
  // Empty sides, Time-0 starts, ill-ordered windows and nodes listed on
  // both sides are plan bugs; the rejected window must not linger.
  EXPECT_THROW(plan.partition({}, {1}, kMillisecond, 2 * kMillisecond),
               SimError);
  EXPECT_THROW(plan.partition({0}, {1}, 0, kMillisecond), SimError);
  EXPECT_THROW(plan.partition({0}, {1}, 2 * kMillisecond, kMillisecond),
               SimError);
  EXPECT_THROW(
      plan.partition({0, 1}, {1, 2}, kMillisecond, 2 * kMillisecond),
      SimError);
  EXPECT_TRUE(plan.partitions.empty());
  plan.partition({0}, {1}, kMillisecond, 5 * kMillisecond);
  // Two simultaneous cuts would make reachability ambiguous.
  EXPECT_THROW(
      plan.partition({2}, {3}, 4 * kMillisecond, 6 * kMillisecond),
      SimError);
  EXPECT_EQ(plan.partitions.size(), 1u);
  // Back-to-back windows are fine ([start, heal) half-open).
  plan.partition({2}, {3}, 5 * kMillisecond, 6 * kMillisecond);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, CardLinkAndRetryBudgetValidation) {
  FaultPlan plan;
  EXPECT_THROW(plan.fail_card(0, 1, 0), SimError);  // Time-0 card death
  plan.fail_card(0, 1, kMillisecond);
  EXPECT_THROW(plan.fail_card(0, 1, 2 * kMillisecond), SimError);  // dup
  EXPECT_EQ(plan.card_fails.size(), 1u);
  EXPECT_THROW(plan.fail_link(1, 3, 0), SimError);
  plan.fail_link(1, 3, kMillisecond);
  EXPECT_THROW(plan.fail_link(1, 3, 5 * kMillisecond), SimError);
  EXPECT_EQ(plan.link_fails.size(), 1u);
  // Geometry bounds are machine-dependent, so Machine checks them.
  FaultPlan bad_stage;
  bad_stage.fail_card(7, 0, kMillisecond);  // butterfly1(16) has 2 stages
  EXPECT_THROW(Machine(butterfly1(16), bad_stage), SimError);
  // The PNC always sends a packet at least once; hand-edited plans with a
  // zero retry budget are caught by Machine's re-validation.
  FaultPlan zero_budget;
  zero_budget.packet_drop_prob = 0.1;
  zero_budget.max_drop_retries = 0;
  EXPECT_THROW(zero_budget.validate(), SimError);
  EXPECT_THROW(Machine(butterfly1(16), zero_budget), SimError);
}

TEST(FaultPlan, DeadCardDetoursReferencesAfterItsDeathTime) {
  // A planned card death fires at its time: the same remote read costs the
  // healthy latency before and one extra hop after.
  FaultPlan plan;
  plan.fail_card(0, 1, 5 * kMillisecond);  // stage-0 card of srcs with n%4==1
  Machine m(butterfly1(16), plan);
  const PhysAddr a = m.alloc(10, 64);
  Time before = 0, after = 0;
  m.spawn(1, [&] {
    Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    before = m.now() - t0;
    m.charge(10 * kMillisecond);
    t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    after = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(after, before + 400u) << "+1 hop through the redundant column";
  EXPECT_EQ(m.stats().alt_routed, 1u);
  EXPECT_EQ(m.stats().net_unreachable_refs, 0u);
}

TEST(FaultPlan, DeadFinalColumnCardMakesItsNodesUnreachable) {
  FaultPlan plan;
  plan.fail_card(1, 2, kMillisecond);  // final column: owns nodes 8..11
  Machine m(butterfly1(16), plan);
  const PhysAddr severed = m.alloc(9, 64);
  bool threw = false;
  Time wasted = 0, paid = 0;
  m.spawn(0, [&] {
    m.charge(5 * kMillisecond);
    EXPECT_FALSE(m.reachable(0, 9));
    EXPECT_TRUE(m.node_alive(9)) << "unreachable, not dead";
    const Time t0 = m.now();
    try {
      (void)m.read<std::uint32_t>(severed);
    } catch (const NetUnreachableError& e) {
      threw = true;
      wasted = e.wasted();
      paid = m.now() - t0;
    }
  });
  m.run();
  EXPECT_TRUE(threw);
  EXPECT_GT(wasted, 0u);
  EXPECT_GE(paid, wasted) << "futile PNC retries are charged, not free";
  EXPECT_GE(m.stats().net_unreachable_refs, 1u);
  EXPECT_EQ(m.stats().dead_node_refs, 0u);
}

TEST(FaultPlan, CrossCutReferencesThrowUntilThePartitionHeals) {
  FaultPlan plan;
  plan.partition({0, 1}, {2, 3}, 5 * kMillisecond, 20 * kMillisecond);
  Machine m(butterfly1(4), plan);
  const PhysAddr far_side = m.alloc(2, 64);
  const PhysAddr same_side = m.alloc(1, 64);
  std::uint32_t cross_ok = 0, cross_cut = 0;
  m.spawn(0, [&] {
    (void)m.read<std::uint32_t>(far_side);  // before the cut
    ++cross_ok;
    m.charge(10 * kMillisecond);  // inside the window now
    EXPECT_FALSE(m.reachable(0, 2));
    EXPECT_FALSE(m.reachable(3, 1)) << "cut is symmetric";
    EXPECT_TRUE(m.reachable(0, 1)) << "same side stays connected";
    EXPECT_TRUE(m.reachable(2, 3));
    const Time t0 = m.now();
    try {
      (void)m.read<std::uint32_t>(far_side);
    } catch (const NetUnreachableError& e) {
      ++cross_cut;
      EXPECT_EQ(e.node(), 2u);
      EXPECT_GE(m.now() - t0,
                16 * (100 * kMicrosecond));  // charged retry budget
    }
    (void)m.read<std::uint32_t>(same_side);  // unaffected by the cut
    m.charge(15 * kMillisecond);  // past heal: connectivity is back
    EXPECT_TRUE(m.reachable(0, 2));
    (void)m.read<std::uint32_t>(far_side);
    ++cross_ok;
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(cross_ok, 2u);
  EXPECT_EQ(cross_cut, 1u);
  EXPECT_EQ(m.stats().net_unreachable_refs, 1u);
}

TEST(FaultPlan, PartitionedRunIsDeterministic) {
  auto run_once = [] {
    FaultPlan plan;
    plan.partition({0, 1}, {2, 3}, 2 * kMillisecond, 30 * kMillisecond);
    Machine m(butterfly1(4), plan);
    const PhysAddr a = m.alloc(2, 64);
    std::uint64_t cut_refs = 0;
    m.spawn(0, [&] {
      for (int i = 0; i < 40; ++i) {
        m.charge(kMillisecond);
        try {
          (void)m.read<std::uint32_t>(a);
        } catch (const NetUnreachableError&) {
          ++cut_refs;
        }
      }
    });
    const Time t = m.run();
    return std::pair<Time, std::uint64_t>(t, cut_refs);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.second, 0u);
  EXPECT_EQ(a, b);
}

TEST(RetryPolicy, FixedScheduleDoublesToCap) {
  const RetryPolicy p{4, 100, 350, 0.0};
  EXPECT_EQ(p.attempts, 4u);
  EXPECT_EQ(p.cap, 350);
  EXPECT_EQ(p.backoff(0), 100);
  EXPECT_EQ(p.backoff(1), 200);
  EXPECT_EQ(p.backoff(2), 350);  // capped
  EXPECT_EQ(p.backoff(3), 350);
}

TEST(RetryPolicy, ZeroJitterDrawsNothingFromTheRng) {
  const RetryPolicy p{4, 100, 350, 0.0};
  Rng rng(42);
  const std::uint64_t before = rng.next();
  Rng again(42);
  EXPECT_EQ(p.backoff_jittered(1, again), p.backoff(1));
  // The RNG state is untouched: the next draw matches the fresh sequence.
  EXPECT_EQ(again.next(), before);
}

TEST(RetryPolicy, JitterSpreadsDownwardWithinBounds) {
  const RetryPolicy p{6, 1000, 100000, 0.5};
  Rng rng(7);
  for (std::uint32_t a = 0; a < 6; ++a) {
    const Time b = p.backoff(a);
    for (int i = 0; i < 20; ++i) {
      const Time j = p.backoff_jittered(a, rng);
      EXPECT_LE(j, b);
      EXPECT_GE(j, b - static_cast<Time>(static_cast<double>(b) * 0.5));
    }
  }
}

TEST(RetryPolicy, JitteredScheduleIsReproducibleFromTheSeed) {
  const RetryPolicy p{6, 1000, 100000, 0.25};
  Rng a(1234), b(1234);
  for (std::uint32_t i = 0; i < 6; ++i)
    EXPECT_EQ(p.backoff_jittered(i, a), p.backoff_jittered(i, b));
  // A different seed gives a different (but still in-bounds) schedule.
  Rng c(9999);
  bool any_diff = false;
  Rng d(1234);
  for (std::uint32_t i = 0; i < 6; ++i)
    if (p.backoff_jittered(i, c) != p.backoff_jittered(i, d)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

// --- Machine::retry: the one transient-fault retry --------------------------

TEST(Retry, BoundedPolicyRaisesAfterExactlyItsAttemptsAndChargesTheBackoffs) {
  // Every reference faults.  One bare read prices a faulted reference;
  // the retried read must cost exactly four of them plus the three
  // backoffs charged between the tries (100 + 200 + capped 350).
  FaultPlan plan;
  plan.mem_fault_prob = 1.0;
  Machine m(butterfly1(4), plan);
  const PhysAddr a = m.alloc(2, 8);
  const RetryPolicy p{4, 100, 350, 0.0};
  Time bare = 0, retried = 0;
  std::uint32_t tries = 0;
  bool raised = false;
  m.spawn(0, [&] {
    Time t0 = m.now();
    EXPECT_THROW((void)m.read<std::uint32_t>(a), MemoryFaultError);
    bare = m.now() - t0;
    t0 = m.now();
    try {
      (void)m.retry(p, [&] {
        ++tries;
        return m.read<std::uint32_t>(a);
      });
    } catch (const MemoryFaultError& e) {
      raised = true;
      EXPECT_EQ(e.node(), 2u);
    }
    retried = m.now() - t0;
  });
  m.run();
  EXPECT_TRUE(raised);
  EXPECT_EQ(tries, 4u);
  EXPECT_EQ(m.stats().mem_faults_injected, 5u);
  EXPECT_GT(bare, 0);
  EXPECT_EQ(retried, 4 * bare + 100 + 200 + 350);
}

TEST(Retry, ASucceedingOperationChargesNothingExtra) {
  Machine m(butterfly1(4));
  const PhysAddr a = m.alloc(2, 8);
  m.poke<std::uint32_t>(a, 42);
  Time bare = 0, retried = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    bare = m.now() - t0;
    t0 = m.now();
    EXPECT_EQ(m.retry(RetryPolicy{},
                      [&] { return m.read<std::uint32_t>(a); }),
              42u);
    retried = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(retried, bare);
}

TEST(Retry, ZeroBackoffAddsNoEngineEvent) {
  // Three faulted reads caught by hand, against the same three tries under
  // a policy whose backoff is zero: the retry must not post a charge(0)
  // resume between tries (it could reorder the run), so both runs end at
  // the same time after the same engine events.
  auto run = [](bool through_retry) {
    FaultPlan plan;
    plan.mem_fault_prob = 1.0;
    Machine m(butterfly1(4), plan);
    const PhysAddr a = m.alloc(2, 8);
    m.spawn(0, [&] {
      if (through_retry) {
        EXPECT_THROW((void)m.retry(RetryPolicy{3, 0, 0, 0.0},
                                   [&] { return m.read<std::uint32_t>(a); }),
                     MemoryFaultError);
      } else {
        for (int i = 0; i < 3; ++i)
          EXPECT_THROW((void)m.read<std::uint32_t>(a), MemoryFaultError);
      }
    });
    const Time end = m.run();
    return std::pair<Time, std::uint64_t>(end,
                                          m.host_perf().events_dispatched);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Retry, ForeverRetriesAtAFixedInterval) {
  const RetryPolicy p = RetryPolicy::forever(700);
  EXPECT_EQ(p.attempts, RetryPolicy::kUnbounded);
  EXPECT_EQ(p.backoff(0), 700);
  EXPECT_EQ(p.backoff(40), 700);
  // Half the references fault: a forever policy keeps going until one
  // lands, charging the interval after each fault.  A faulted write costs
  // what a landed one does.
  Time write_ns = 0;
  {
    Machine clean(butterfly1(4));
    const PhysAddr a = clean.alloc(2, 8);
    clean.spawn(0, [&] { clean.write<std::uint32_t>(a, 7); });
    write_ns = clean.run();
  }
  FaultPlan plan;
  plan.mem_fault_prob = 0.5;
  plan.seed = 3;
  Machine m(butterfly1(4), plan);
  const PhysAddr a = m.alloc(2, 8);
  std::uint32_t landed = 0;
  m.spawn(0, [&] {
    for (int i = 0; i < 50; ++i) {
      m.retry(p, [&] { m.write<std::uint32_t>(a, 7); });
      ++landed;
    }
  });
  const Time end = m.run();
  const std::uint64_t faults = m.stats().mem_faults_injected;
  EXPECT_EQ(landed, 50u);
  EXPECT_GT(faults, 10u);
  EXPECT_EQ(end, static_cast<Time>((50 + faults) * write_ns + faults * 700));
}

}  // namespace
}  // namespace bfly::sim
