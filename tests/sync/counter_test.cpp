// Idle-counter strategies: central exactness, distributed modular sums,
// and the Uniform System running (and surviving kills) on each.
#include "sync/counter.hpp"

#include <gtest/gtest.h>

#include "us/uniform_system.hpp"

namespace bfly::sync {
namespace {

using sim::butterfly1;
using sim::exascale_ish;
using sim::Machine;

TEST(CentralCounter, IsExactAndReturnsPrevious) {
  Machine m(butterfly1(4));
  CentralCounter c(m, 0, "test.counter");
  EXPECT_TRUE(c.exact());
  m.spawn(1, [&] {
    EXPECT_EQ(c.add(3), 0u);
    EXPECT_EQ(c.add(0xffffffffu), 3u);  // decrement
    EXPECT_EQ(c.read(), 2u);
  });
  m.run();
  EXPECT_EQ(c.peek_total(), 2u);
  c.poke_adjust(-2);
  EXPECT_EQ(c.peek_total(), 0u);
}

TEST(DistributedCounter, SumsCellsThatWrapIndividually) {
  Machine m(butterfly1(8));
  std::vector<sim::NodeId> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  DistributedCounter c(m, nodes, "test.counter");
  EXPECT_FALSE(c.exact());
  // Node 0 generates 24 units of work; every node retires 3 of them — the
  // retiring cells go "negative" (wrap), only the sum means anything.
  m.spawn(0, [&] { EXPECT_EQ(c.add(24), IdleCounter::kUnknown); });
  m.run();
  EXPECT_EQ(c.peek_total(), 24u);
  for (sim::NodeId n = 0; n < 8; ++n)
    m.spawn(n, [&] { (void)c.add(0xfffffffdu); });  // -3 each
  m.run();
  EXPECT_EQ(c.peek_total(), 0u);
  std::uint32_t seen = 1;
  m.spawn(5, [&] { seen = c.read(); });
  m.run();
  EXPECT_EQ(seen, 0u);
}

TEST(DistributedCounter, ExciseFoldsTheCellValue) {
  Machine m(butterfly1(4));
  std::vector<sim::NodeId> nodes{0, 1, 2, 3};
  DistributedCounter c(m, nodes, "test.counter");
  m.spawn(2, [&] { (void)c.add(7); });
  m.run();
  c.excise(2);
  EXPECT_EQ(c.peek_total(), 7u);  // survived the node
  c.poke_adjust(-7);
  EXPECT_EQ(c.peek_total(), 0u);
}

TEST(UsCounter, ConfigSelectsTheCounter) {
  // The strategy belongs to the Uniform System, not the machine: the same
  // exascale_ish machine gets whichever counter UsConfig asks for.
  for (const us::SyncStrategy st :
       {us::SyncStrategy::kCentral1988, us::SyncStrategy::kScalable}) {
    Machine m(exascale_ish(8));
    chrys::Kernel k(m);
    us::UsConfig cfg;
    cfg.sync_strategy = st;
    us::UniformSystem us(k, cfg);
    const bool central = st == us::SyncStrategy::kCentral1988;
    us.run_main([&] { EXPECT_EQ(us.idle_counter().exact(), central); });
  }
}

TEST(UsCounter, ForAllCompletesOnTheDistributedCounter) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  us::UsConfig cfg;
  cfg.sync_strategy = us::SyncStrategy::kScalable;
  us::UniformSystem us(k, cfg);
  std::uint32_t completed = 0;
  us.run_main([&] {
    us.for_all(0, 100, [&](us::TaskCtx& c) {
      c.m.compute(500);
      ++completed;
    });
    // The polling waiter saw a confirmed zero.
    EXPECT_EQ(us.idle_counter().peek_total(), 0u);
    // Back-to-back waves reuse the same cells.
    us.for_all(0, 50, [&](us::TaskCtx&) { ++completed; });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(completed, 150u);
  EXPECT_EQ(us.tasks_run(), 150u);
}

TEST(UsCounter, KillMidWaveIsRecoveredOnTheDistributedCounter) {
  // The satellite fix: the kill-rescue path (owed decrements, waiter
  // rescue) must go through the strategy interface, not peek/poke a cell
  // that no longer exists.  Node 5's counter cell dies with it; its value
  // folds host-side and the wave still drains.
  sim::FaultPlan plan;
  plan.kill(5, 100 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  us::UsConfig cfg;
  cfg.sync_strategy = us::SyncStrategy::kScalable;
  cfg.processors = 8;
  us::UniformSystem us(k, cfg);
  std::vector<std::uint32_t> done(200, 0);
  us.run_main([&] {
    us.for_all(0, 200, [&](us::TaskCtx& c) {
      c.m.compute(20000);  // ~10 ms: every manager is mid-task at 100 ms
      ++done[c.arg];
    });
  });
  EXPECT_FALSE(m.deadlocked());
  for (std::uint32_t i = 0; i < 200; ++i)
    EXPECT_GE(done[i], 1u) << "task " << i;
  EXPECT_EQ(us.nodes_lost(), 1u);
  EXPECT_GE(us.tasks_reissued(), 1u);
}

TEST(UsCounter, WholePoolDeadReleasesThePollingWaiter) {
  // All managers die mid-wave; the distributed-counter waiter polls, so
  // the managers_alive_ == 0 escape must fire from the poll loop (there is
  // no event anyone could post).
  sim::FaultPlan plan;
  plan.kill(0, 60 * sim::kMillisecond);
  plan.kill(1, 65 * sim::kMillisecond);
  plan.kill(2, 70 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  us::UsConfig cfg;
  cfg.sync_strategy = us::SyncStrategy::kScalable;
  cfg.processors = 3;  // pool = nodes 0..2; main lives on node 3
  us::UniformSystem us(k, cfg);
  bool returned = false;
  k.create_process(3, [&] {
    us.initialize();
    us.gen_on_index(0, 400, [&](us::TaskCtx& c) { c.m.compute(40000); });
    us.wait_idle();
    returned = true;
  });
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(returned);
  EXPECT_EQ(us.nodes_lost(), 3u);
  EXPECT_EQ(us.managers_alive(), 0u);
}

TEST(UsCounter, TransientFaultsAreAbsorbedByTheDistributedCounter) {
  sim::FaultPlan plan;
  plan.mem_fault_prob = 0.01;
  plan.seed = 99;
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  us::UsConfig cfg;
  cfg.sync_strategy = us::SyncStrategy::kScalable;
  us::UniformSystem us(k, cfg);
  std::uint32_t completed = 0;
  us.run_main([&] {
    us.for_all(0, 100, [&](us::TaskCtx& c) {
      c.m.compute(1000);
      ++completed;
    });
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(completed + us.tasks_faulted(), 100u);
}

}  // namespace
}  // namespace bfly::sync
