// Task descriptor lifetime: slots are recycled when their task completes,
// every task of a generation shares one closure, and neither the trace nor
// fault recovery can tell a recycled slot from a fresh one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "us/uniform_system.hpp"

namespace bfly::us {
namespace {

using sim::butterfly1;
using sim::Machine;

TEST(UsDescriptors, GaussSolveHoldsNoMoreSlotsThanItsTasksInFlight) {
  // Every pivot is one for_all of min(P, rows left) tasks: 40,896 tasks in
  // all at N=384, never more than P of them outstanding at once.
  sim::MachineConfig mc = butterfly1(128);
  mc.memory_per_node = 4u << 20;
  Machine m(mc);
  apps::GaussConfig cfg;
  cfg.n = 384;
  cfg.processors = 128;
  const apps::GaussResult r = apps::gauss_us(m, cfg);
  EXPECT_EQ(apps::gauss_error(r, cfg.n, cfg.seed), 0.0);
  EXPECT_GT(r.task_descriptors, 0u);
  EXPECT_LE(r.task_descriptors, 128u);
}

TEST(UsDescriptors, ManySmallGenerationsReuseTheSameSlots) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::uint64_t ran = 0;
  us.run_main([&] {
    for (int g = 0; g < 10000; ++g) us.for_all(0, 3, [&](TaskCtx&) { ++ran; });
  });
  EXPECT_EQ(ran, 30000u);
  EXPECT_EQ(us.tasks_run(), 30000u);
  EXPECT_LE(us.descriptor_slots(), 3u);
}

// Counts its own copies; moves are free.
struct CopyCounter {
  int* copies;
  int* runs;
  CopyCounter(int* c, int* r) : copies(c), runs(r) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), runs(o.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  void operator()(TaskCtx&) const { ++*runs; }
};

TEST(UsDescriptors, OneGenerationCopiesItsClosureAConstantNumberOfTimes) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  UniformSystem us(k);
  int copies = 0, runs = 0;
  const CopyCounter fn(&copies, &runs);
  us.run_main([&] { us.for_all(0, 1000, fn); });
  EXPECT_EQ(runs, 1000);
  EXPECT_LE(copies, 2) << "the closure was copied per task";
}

TEST(UsDescriptors, ATaskMayGenerateTasksWhileTheTableGrows) {
  // The parent's closure must outlive every gen_task its body makes, even
  // though those calls grow (and so move) the descriptor table.  Run under
  // the asan preset this catches a closure read after it was freed.
  Machine m(butterfly1(2));
  chrys::Kernel k(m);
  UniformSystem us(k);
  int leaves = 0;
  std::size_t tag_seen = 0;
  us.run_main([&] {
    us.gen_task([&leaves, &tag_seen, tag = std::string(100, 'x')](TaskCtx& c) {
      for (int i = 0; i < 200; ++i)
        c.us.gen_task([&leaves](TaskCtx& t) {
          t.m.charge(sim::kMillisecond);  // slower than generation: queue up
          ++leaves;
        });
      tag_seen = tag.size();  // reads the closure after the table grew
    });
    us.wait_idle();
  });
  EXPECT_EQ(leaves, 200);
  EXPECT_EQ(tag_seen, 100u);
  EXPECT_GT(us.descriptor_slots(), 100u);
}

TEST(UsDescriptors, KillMidWaveOnRecycledSlotsReissuesOnlyTheInFlightTask) {
  // Five waves of 20 ~10 ms tasks on 8 processors: slots are recycled from
  // the first wave on, and node 5 dies at 100 ms in the middle of a wave.
  constexpr std::uint32_t kWaves = 5, kWidth = 20;
  sim::FaultPlan plan;
  plan.kill(5, 100 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  UniformSystem us(k);
  std::vector<std::uint32_t> starts(kWaves * kWidth, 0);
  std::vector<std::uint32_t> done(kWaves * kWidth, 0);
  std::uint32_t last_on_dead = 0;
  us.run_main([&] {
    for (std::uint32_t w = 0; w < kWaves; ++w) {
      us.for_all(0, kWidth, [&, w](TaskCtx& c) {
        const std::uint32_t id = w * kWidth + c.arg;
        ++starts[id];
        if (c.node == 5) last_on_dead = id;
        c.m.compute(20000);
        ++done[id];
      });
    }
  });
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(us.nodes_lost(), 1u);
  EXPECT_EQ(us.tasks_reissued(), 1u);
  EXPECT_LE(us.descriptor_slots(), kWidth);
  for (std::uint32_t id = 0; id < kWaves * kWidth; ++id) {
    EXPECT_EQ(done[id], 1u) << "task " << id;
    EXPECT_EQ(starts[id], id == last_on_dead ? 2u : 1u) << "task " << id;
  }
}

// Collects the arguments of the us/gen_task instants.
struct GenTaskInstants : sim::Probe {
  std::vector<std::uint64_t> args;
  void on_instant(sim::Fiber*, sim::NodeId, const char* cat, const char* name,
                  std::uint64_t arg) override {
    if (std::string(cat) == "us" && std::string(name) == "gen_task")
      args.push_back(arg);
  }
};

TEST(UsDescriptors, GenTaskInstantCountsTasksAcrossSlotReuse) {
  Machine m(butterfly1(4));
  GenTaskInstants probe;
  m.attach(&probe);
  chrys::Kernel k(m);
  UniformSystem us(k);
  us.run_main([&] {
    for (int round = 0; round < 6; ++round) {
      us.gen_task([](TaskCtx&) {});
      us.for_all(0, 3, [](TaskCtx&) {});
    }
  });
  m.detach(&probe);
  // The argument is the number of tasks generated before this one, so the
  // three indices of each for_all leave a gap of four.
  const std::vector<std::uint64_t> expect = {0, 4, 8, 12, 16, 20};
  EXPECT_EQ(probe.args, expect);
  EXPECT_LE(us.descriptor_slots(), 4u);
}

}  // namespace
}  // namespace bfly::us
