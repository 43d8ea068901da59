// Failure-injection tests for the Uniform System.
#include <gtest/gtest.h>

#include <numeric>

#include "us/uniform_system.hpp"

namespace bfly::us {
namespace {

using sim::butterfly1;
using sim::Machine;

TEST(UsFaults, ThrowingTaskDoesNotKillItsManager) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  UniformSystem us(k);
  int completed = 0;
  us.run_main([&] {
    us.for_all(0, 40, [&](TaskCtx& c) {
      if (c.arg % 4 == 0) c.k.throw_err(chrys::kThrowUser + 9);
      ++completed;
    });
    // Managers survived: a second generation still runs everywhere.
    us.for_all(0, 40, [&](TaskCtx&) { ++completed; });
  });
  EXPECT_EQ(completed, 30 + 40);
  EXPECT_EQ(us.tasks_faulted(), 10u);
  EXPECT_EQ(us.tasks_run(), 80u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(UsFaults, WaitIdleStillFiresWhenTasksFault) {
  // The completion counter must be decremented even for faulting tasks,
  // or wait_idle would hang forever.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  UniformSystem us(k);
  bool finished = false;
  us.run_main([&] {
    us.gen_on_index(0, 10, [&](TaskCtx& c) {
      c.k.throw_err(chrys::kThrowUser);
    });
    us.wait_idle();
    finished = true;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(us.tasks_faulted(), 10u);
}

TEST(UsFaults, AllocationFailureInsideTaskIsTrapped) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  UsConfig cfg;
  cfg.heap_limit = 64 * 1024;
  UniformSystem us(k, cfg);
  us.run_main([&] {
    us.for_all(0, 8, [](TaskCtx& c) {
      (void)c.us.alloc_global(32 * 1024);  // most of these blow the limit
    });
  });
  EXPECT_GE(us.tasks_faulted(), 6u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(UsFaults, NodeKilledMidForAllIsRecovered) {
  // The tentpole scenario: a processor dies while a for_all is in flight.
  // The surviving managers absorb its work — including the task that was
  // running on it when it died — and the wave completes correctly.
  sim::FaultPlan plan;
  plan.kill(5, 100 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UsConfig cfg;
  cfg.processors = 8;
  cfg.memory_nodes = 4;
  UniformSystem us(k, cfg);
  std::vector<std::uint32_t> done(200, 0);
  us.run_main([&] {
    us.for_all(0, 200, [&](TaskCtx& c) {
      c.m.compute(20000);  // ~10 ms: every manager is mid-task at 100 ms
      ++done[c.arg];
    });
  });
  EXPECT_FALSE(m.deadlocked());
  for (std::uint32_t i = 0; i < 200; ++i)
    EXPECT_EQ(done[i], 1u) << "task " << i;
  EXPECT_EQ(us.nodes_lost(), 1u);
  EXPECT_GE(us.tasks_reissued(), 1u);
  EXPECT_GE(us.tasks_run(), 200u);
  EXPECT_GE(k.killed_processes(), 1u);
}

TEST(UsFaults, SecondWaveRunsOnSurvivorsAfterAKill) {
  sim::FaultPlan plan;
  plan.kill(2, 80 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::uint32_t first = 0, second = 0;
  us.run_main([&] {
    us.for_all(0, 60, [&](TaskCtx& c) {
      c.m.compute(20000);
      ++first;
    });
    us.for_all(0, 40, [&](TaskCtx& c) {
      c.m.compute(2000);
      ++second;
    });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(first, 60u);
  EXPECT_EQ(second, 40u);
  EXPECT_EQ(us.nodes_lost(), 1u);
}

TEST(UsFaults, EveryWorkerKilledStillReleasesTheWaiter) {
  // The whole pool dies mid-wave.  wait_idle must be released with the
  // work undone rather than blocking forever: there is nobody left who
  // could ever finish it.
  sim::FaultPlan plan;
  plan.kill(0, 60 * sim::kMillisecond);
  plan.kill(1, 65 * sim::kMillisecond);
  plan.kill(2, 70 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  UsConfig cfg;
  cfg.processors = 3;  // pool = nodes 0..2; main lives on node 3
  UniformSystem us(k, cfg);
  bool returned = false;
  k.create_process(3, [&] {
    us.initialize();
    us.gen_on_index(0, 400, [&](TaskCtx& c) { c.m.compute(40000); });
    us.wait_idle();
    returned = true;
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(returned);
  EXPECT_EQ(us.nodes_lost(), 3u);
  EXPECT_EQ(us.managers_alive(), 0u);
}

TEST(UsFaults, TransientMemoryFaultsAreAbsorbed) {
  // Aggressive transient fault rate: tasks fault and are counted, the
  // infrastructure (completion counter, allocator lock) retries and the
  // run still terminates.
  sim::FaultPlan plan;
  plan.mem_fault_prob = 0.01;
  plan.seed = 99;
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::uint32_t completed = 0;
  us.run_main([&] {
    const sim::PhysAddr a = us.alloc_global(256);
    us.for_all(0, 100, [&](TaskCtx& c) {
      for (int i = 0; i < 20; ++i) (void)c.us.get<std::uint32_t>(a);
      ++completed;
    });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_GT(m.stats().mem_faults_injected, 0u);
  // Tasks that faulted did not finish their loop, but every descriptor was
  // consumed exactly once and the wave terminated.
  EXPECT_EQ(completed + us.tasks_faulted(), 100u);
}

TEST(UsFaults, NodeKilledDuringInitializationIsSkipped) {
  // The kill lands while run_main is still creating managers (serial
  // creation takes ~4 ms per node, the kill fires at 2 ms): the dead node
  // must be left out of the pool, not crash the initializer or strand the
  // survivors.
  sim::FaultPlan plan;
  plan.kill(3, 2 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::uint32_t completed = 0;
  us.run_main([&] {
    us.for_all(0, 50, [&](TaskCtx& c) {
      c.m.compute(1000);
      ++completed;
    });
    EXPECT_EQ(us.managers_alive(), 7u);  // before terminate() stops them
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(completed, 50u);
  EXPECT_EQ(us.nodes_lost(), 1u);
}

TEST(UsFaults, TreeInitAdoptsTheSubtreeOfADeadNode) {
  // Fan-out creation: node 1 (whose subtree is 3, 4) dies before its
  // manager starts, so its parent must create the grandchildren directly
  // or half the pool never comes up.
  sim::FaultPlan plan;
  plan.kill(1, 1);  // one nanosecond in: manager creation takes milliseconds
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UsConfig cfg;
  cfg.tree_init = true;
  UniformSystem us(k, cfg);
  std::vector<std::uint32_t> ran_on(8, 0);
  us.run_main([&] {
    us.for_all(0, 200, [&](TaskCtx& c) {
      c.m.compute(2000);
      ++ran_on[c.node];
    });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(us.nodes_lost(), 1u);
  EXPECT_EQ(ran_on[1], 0u);
  // The dead node's children still joined the pool.
  EXPECT_GT(ran_on[3], 0u);
  EXPECT_GT(ran_on[4], 0u);
}

TEST(UsFaults, ManagerNodeCutOffAtInitIsLostFromTheStart) {
  // The machine is split {0-3} | {4-7} from the first nanosecond, so
  // us-main on node 0 cannot ship a process template across the cut.  A
  // manager node cut off at creation is lost like a dead one: the Uniform
  // System comes up on its own side and every task still runs there.
  sim::FaultPlan plan;
  plan.partition({0, 1, 2, 3}, {4, 5, 6, 7}, 1, sim::kSecond * 1000);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::vector<std::uint32_t> ran_on(8, 0);
  us.run_main([&] {
    us.for_all(0, 8, [&](TaskCtx& c) { ++ran_on[c.node]; });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(us.nodes_lost(), 4u);
  EXPECT_EQ(std::accumulate(ran_on.begin(), ran_on.end(), 0u), 8u);
  for (sim::NodeId n = 4; n < 8; ++n) EXPECT_EQ(ran_on[n], 0u) << n;
}

}  // namespace
}  // namespace bfly::us
