// The synchronization primitives under transient memory faults: every word
// operation a lock or barrier issues may raise MemoryFaultError, and each
// primitive retries it (or, for a spin probe, counts it as a failed probe).
// Each test asserts the primitive's correctness property and pins the run's
// exact end time and per-node accounting, so a change to how the retries
// are issued (an extra charge, a dropped one, a reordered yield) shows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../render_stats.hpp"
#include "chrysalis/spinlock.hpp"
#include "sync/barrier.hpp"
#include "sync/mcs.hpp"

namespace bfly::sync {
namespace {

using sim::butterfly1;
using sim::Machine;

Machine faulty_machine(std::uint32_t nodes, std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.mem_fault_prob = 0.05;
  plan.seed = seed;
  return Machine(butterfly1(nodes), plan);
}

std::string pinned(Machine& m) {
  return "now=" + std::to_string(m.now()) +
         " faults=" + std::to_string(m.stats().mem_faults_injected) + "; " +
         test::render_stats(m.stats());
}

TEST(SyncFaults, McsLockKeepsMutualExclusion) {
  Machine m = faulty_machine(8, 11);
  std::vector<sim::NodeId> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  McsLock lock(m, 0, nodes);
  int in_cs = 0, max_in_cs = 0, total = 0;
  for (std::uint32_t w = 0; w < 8; ++w) {
    m.spawn(nodes[w], [&, w] {
      for (int r = 0; r < 20; ++r) {
        lock.acquire(w);
        max_in_cs = std::max(max_in_cs, ++in_cs);
        m.charge(50 * sim::kMicrosecond);
        --in_cs;
        lock.release(w);
        m.charge(10 * sim::kMicrosecond);
        ++total;
      }
    });
  }
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(max_in_cs, 1);
  EXPECT_EQ(total, 8 * 20);
  EXPECT_EQ(lock.acquisitions(), 160u);
  EXPECT_EQ(pinned(m),
            "now=8835800 faults=1661; "
            "n0{local=4149 remote=45 serviced=194 stall=3527100 queue=99900} "
            "n1{local=3984 remote=62 serviced=39 stall=3341300 queue=5300} "
            "n2{local=4015 remote=63 serviced=44 stall=3367800 queue=4600} "
            "n3{local=4043 remote=63 serviced=44 stall=3394500 queue=8900} "
            "n4{local=4070 remote=64 serviced=42 stall=3423000 queue=13400} "
            "n5{local=4100 remote=66 serviced=43 stall=3445700 queue=7300} "
            "n6{local=4133 remote=65 serviced=42 stall=3468400 queue=6000} "
            "n7{local=4194 remote=64 serviced=44 stall=3517800 queue=9000}");
}

// Every worker bumps its phase, crosses the barrier, checks that all phases
// reached the round, and crosses again.
template <typename Barrier>
void run_phases(Machine& m, Barrier& bar, std::uint32_t workers,
                std::uint32_t rounds) {
  std::vector<std::uint32_t> phase(workers, 0);
  for (std::uint32_t w = 0; w < workers; ++w) {
    m.spawn(w, [&, w] {
      for (std::uint32_t r = 0; r < rounds; ++r) {
        ++phase[w];
        m.charge((1 + (w * 7 + r) % 13) * 10 * sim::kMicrosecond);
        bar.arrive(w);
        for (std::uint32_t x = 0; x < workers; ++x)
          EXPECT_EQ(phase[x], r + 1) << "round " << r << " worker " << w;
        bar.arrive(w);
      }
    });
  }
  m.run();
  ASSERT_FALSE(m.deadlocked());
  for (std::uint32_t x = 0; x < workers; ++x) EXPECT_EQ(phase[x], rounds);
}

TEST(SyncFaults, CentralBarrierCompletesEveryEpisode) {
  Machine m = faulty_machine(8, 12);
  CentralBarrier bar(m, 0, 8);
  run_phases(m, bar, 8, 10);
  EXPECT_EQ(m.stats().barrier_episodes, 20u);
  EXPECT_EQ(pinned(m),
            "now=1529700 faults=54; "
            "n0{local=180 serviced=942 stall=269500 queue=125500} "
            "n1{remote=131 stall=338400 queue=24000} "
            "n2{remote=143 stall=366900 queue=23700} "
            "n3{remote=135 stall=350400 queue=26400} "
            "n4{remote=130 stall=338900 queue=26900} "
            "n5{remote=141 stall=364800 queue=26400} "
            "n6{remote=118 stall=304700 queue=21500} "
            "n7{remote=144 stall=370900 queue=25300}");
}

TEST(SyncFaults, TreeBarrierCompletesEveryEpisode) {
  // Arity 2 over 16 workers: four levels, so the release wave reads child
  // representatives as well as swapping counts and flags.
  Machine m = faulty_machine(16, 13);
  std::vector<sim::NodeId> nodes;
  for (sim::NodeId n = 0; n < 16; ++n) nodes.push_back(n);
  TreeBarrier bar(m, nodes, 2);
  run_phases(m, bar, 16, 10);
  EXPECT_EQ(m.stats().barrier_episodes, 20u);
  EXPECT_EQ(pinned(m),
            "now=2425800 faults=752; "
            "n0{local=944 remote=13 serviced=457 stall=999600 queue=213200} "
            "n1{local=825 remote=89 serviced=20 stall=883100 queue=9500} "
            "n2{local=905 remote=70 serviced=54 stall=914500 queue=22500} "
            "n3{local=749 remote=156 serviced=19 stall=985000 queue=11400} "
            "n4{local=913 remote=10 serviced=183 stall=832100 queue=77700} "
            "n5{local=845 remote=98 serviced=20 stall=922600 queue=11400} "
            "n6{local=702 remote=141 serviced=48 stall=918800 queue=18800} "
            "n7{local=760 remote=173 serviced=20 stall=1031300 queue=8100} "
            "n8{local=827 remote=14 serviced=318 stall=847500 queue=152300} "
            "n9{local=874 remote=99 serviced=19 stall=949000 queue=12200} "
            "n10{local=763 remote=115 serviced=48 stall=908800 queue=22400} "
            "n11{local=835 remote=143 serviced=17 stall=1018300 queue=7100} "
            "n12{local=884 remote=23 serviced=175 stall=845600 queue=83200} "
            "n13{local=916 remote=94 serviced=20 stall=968300 queue=9900} "
            "n14{local=775 remote=130 serviced=52 stall=955900 queue=23900} "
            "n15{local=826 remote=121 serviced=19 stall=957400 queue=6200}");
}

TEST(SyncFaults, SpinLockReleaseAlwaysLands) {
  // A release write lost to a fault would leave the lock held and wedge
  // every spinner; the release retries until the store lands.
  Machine m = faulty_machine(8, 14);
  const sim::PhysAddr cell = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  int in_cs = 0, max_in_cs = 0, total = 0;
  for (sim::NodeId n = 0; n < 8; ++n) {
    m.spawn(n, [&] {
      chrys::SpinLock lock(m, cell);
      for (int r = 0; r < 20; ++r) {
        lock.acquire();
        max_in_cs = std::max(max_in_cs, ++in_cs);
        m.charge(20 * sim::kMicrosecond);
        --in_cs;
        lock.release();
        m.charge(10 * sim::kMicrosecond);
        ++total;
      }
    });
  }
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(max_in_cs, 1);
  EXPECT_EQ(total, 8 * 20);
  EXPECT_EQ(m.stats().lock_acquisitions, 160u);
  EXPECT_EQ(m.peek<std::uint32_t>(cell), 0u);
  EXPECT_EQ(pinned(m),
            "now=3760600 faults=169; "
            "n0{local=325 serviced=2942 stall=493200 queue=233200} "
            "n1{remote=376 stall=922800 queue=20400} "
            "n2{remote=426 stall=1047200 queue=24800} "
            "n3{remote=437 stall=1076300 queue=27500} "
            "n4{remote=442 stall=1084800 queue=24000} "
            "n5{remote=453 stall=1110600 queue=23400} "
            "n6{remote=368 stall=904100 queue=20900} "
            "n7{remote=440 stall=1081900 queue=25900}");
}

}  // namespace
}  // namespace bfly::sync
