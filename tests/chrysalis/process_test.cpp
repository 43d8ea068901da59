#include <gtest/gtest.h>

#include "chrysalis/kernel.hpp"

namespace bfly::chrys {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

TEST(Process, RunsAndExits) {
  Machine m(butterfly1(4));
  Kernel k(m);
  bool ran = false;
  k.create_process(0, [&] { ran = true; });
  m.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(k.live_processes(), 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(Process, NonPreemptivePerNodeScheduling) {
  Machine m(butterfly1(2));
  Kernel k(m);
  std::vector<int> order;
  k.create_process(0, [&] {
    order.push_back(1);
    m.charge(sim::kMillisecond);  // holds the CPU: no preemption
    order.push_back(2);
  });
  k.create_process(0, [&] { order.push_back(3); });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, ProcessesOnDifferentNodesOverlapInTime) {
  Machine m(butterfly1(4));
  Kernel k(m);
  Time done_a = 0, done_b = 0;
  k.create_process(0, [&] {
    m.charge(10 * sim::kMillisecond);
    done_a = m.now();
  });
  k.create_process(1, [&] {
    m.charge(10 * sim::kMillisecond);
    done_b = m.now();
  });
  m.run();
  // True parallelism: both finish ~10 ms after their (near-simultaneous)
  // creation rather than 20 ms serial.
  EXPECT_LT(done_a, 15 * sim::kMillisecond);
  EXPECT_LT(done_b, 15 * sim::kMillisecond);
}

TEST(Process, YieldRotatesReadyQueue) {
  Machine m(butterfly1(1));
  Kernel k(m);
  std::vector<int> order;
  k.create_process(0, [&] {
    order.push_back(1);
    k.yield();
    order.push_back(3);
  });
  k.create_process(0, [&] {
    order.push_back(2);
    k.yield();
    order.push_back(4);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Process, CreationCostIncludesSerializedTemplateSection) {
  // Two processes creating children concurrently must queue on the global
  // process-template resource (the Crowd Control bottleneck).
  Machine m(butterfly1(8));
  Kernel k(m);
  Time t_single = 0;
  {
    Machine m1(butterfly1(8));
    Kernel k1(m1);
    k1.create_process(0, [&] {
      const Time t0 = m1.now();
      k1.create_process(1, [] {});
      t_single = m1.now() - t0;
    });
    m1.run();
  }
  std::vector<Time> costs;
  for (int i = 0; i < 4; ++i) {
    k.create_process(i, [&, i] {
      const Time t0 = m.now();
      k.create_process(4 + i, [] {});
      costs.push_back(m.now() - t0);
    });
  }
  m.run();
  ASSERT_EQ(costs.size(), 4u);
  Time max_cost = *std::max_element(costs.begin(), costs.end());
  EXPECT_GT(max_cost, t_single + 2 * m.config().proc_create_serial_ns)
      << "concurrent creators must serialize on the template resource";
}

TEST(Process, SarBlocksAreBuddySized) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid p = k.create_process(0, [] {}, "p", 20);
  m.run();
  // 20 segments requested -> 32-SAR block.
  EXPECT_EQ(k.free_sars(0), 512u - 0u);  // refunded at exit
  (void)p;
}

TEST(Process, SarExhaustionLimitsProcessesPerNode) {
  Machine m(butterfly1(2));
  Kernel k(m);
  int created = 0, failed = 0;
  k.create_process(0, [&] {
    // Each child wants a 256-SAR block; only 1 more fits beside this
    // process's own 8 (512 total).
    for (int i = 0; i < 3; ++i) {
      const int code = k.catch_block([&] {
        k.create_process(0, [&k] { k.delay(50 * sim::kMillisecond); }, "fat",
                         256);
        ++created;
      });
      if (code == kThrowNoSars) ++failed;
    }
  });
  m.run();
  EXPECT_EQ(created, 1);
  EXPECT_EQ(failed, 2);
}

TEST(Process, FaultedProcessTerminatesQuietly) {
  Machine m(butterfly1(2));
  Kernel k(m);
  bool after = false;
  k.create_process(0, [&] { k.throw_err(kThrowUser + 1); });
  k.create_process(0, [&] { after = true; });
  m.run();
  EXPECT_TRUE(after);
  EXPECT_EQ(k.live_processes(), 0u);
}

TEST(Process, DelayReleasesCpuToOtherProcesses) {
  Machine m(butterfly1(1));
  Kernel k(m);
  std::vector<int> order;
  k.create_process(0, [&] {
    k.delay(10 * sim::kMillisecond);
    order.push_back(2);
  });
  k.create_process(0, [&] { order.push_back(1); });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Process, SleeperOnIdleNodeDoesNotDelayMidSleepWakeups) {
  // A delay taken while the node's ready queue happens to be empty must
  // still release the CPU: a server woken by a request arriving mid-sleep
  // runs immediately, it does not wait out the sleeper's nap.  (This was
  // once a real bug — delay charged the interval on an idle node, and any
  // periodic sleeper made every mid-sleep wakeup late by up to a period.)
  Machine m(butterfly1(2));
  Kernel k(m);
  const Oid dq = k.make_dual_queue();
  Time served_at = 0;
  k.create_process(0, [&] {
    (void)k.dq_dequeue(dq);  // blocks: not in the ready queue
    served_at = m.now();
  });
  k.create_process(0, [&] {
    k.delay(50 * sim::kMillisecond);  // ready queue is empty at this point
  });
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    k.dq_enqueue(dq, 7);  // lands mid-sleep on node 0
  });
  m.run();
  EXPECT_GE(served_at, 5 * sim::kMillisecond);
  EXPECT_LT(served_at, 10 * sim::kMillisecond);  // not 50: sleeper can't block it
  EXPECT_FALSE(m.deadlocked());
}


TEST(Process, SelfBelongsToOneKernel) {
  // Two kernels on one machine: a process of one is not a process of the
  // other, though both read the same fiber.
  Machine m(butterfly1(2));
  Kernel k1(m), k2(m);
  Oid seen = kNoObject;
  const Oid p1 = k1.create_process(0, [&] {
    sim::Fiber* f = sim::Fiber::current();
    seen = k1.process_of(f);
    EXPECT_EQ(k1.self().oid(), seen);
    EXPECT_TRUE(k1.on_process());
    EXPECT_FALSE(k2.on_process());
    EXPECT_EQ(k2.process_of(f), kNoObject);
    EXPECT_THROW((void)k2.self(), sim::SimError);
  });
  bool plain_fiber_checked = false;
  m.spawn(1, [&] {
    EXPECT_FALSE(k1.on_process());
    EXPECT_EQ(k1.process_of(sim::Fiber::current()), kNoObject);
    EXPECT_THROW((void)k1.self(), sim::SimError);
    plain_fiber_checked = true;
  });
  m.run();
  EXPECT_EQ(seen, p1);
  EXPECT_TRUE(plain_fiber_checked);
}

// Asks the kernel, at every span end on a watched fiber, which process the
// fiber runs.  A process's lifetime span closes after its exit.
class ProcessOfProbe : public sim::Probe {
 public:
  explicit ProcessOfProbe(const Kernel& k) : k_(k) {}
  void on_span_end(sim::Fiber* f, sim::NodeId /*node*/) override {
    if (f != nullptr) last = k_.process_of(f);
  }
  Oid last = 1234;

 private:
  const Kernel& k_;
};

TEST(Process, ProcessOfIsNoObjectAfterExit) {
  Machine m(butterfly1(2));
  Kernel k(m);
  ProcessOfProbe probe(k);
  m.attach(&probe);
  Oid during = kNoObject;
  const Oid p = k.create_process(0, [&] {
    during = k.process_of(sim::Fiber::current());
  });
  m.run();
  EXPECT_EQ(during, p);
  EXPECT_EQ(probe.last, kNoObject);
}

TEST(Process, BlockedProcessesComeBackInOidOrder) {
  // Later-created processes block first; the snapshot is still in oid
  // (creation) order.
  Machine m(butterfly1(8));
  Kernel k(m);
  std::vector<Oid> queues, procs;
  for (std::uint32_t i = 0; i < 6; ++i) queues.push_back(k.make_dual_queue());
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Oid q = queues[i];
    procs.push_back(k.create_process(i, [&k, q, i] {
      k.delay((6 - i) * sim::kMillisecond);
      (void)k.dq_dequeue(q);
    }, "waiter" + std::to_string(i)));
  }
  m.run();
  const auto blocked = k.blocked_processes();
  ASSERT_EQ(blocked.size(), procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    EXPECT_EQ(blocked[i].process, procs[i]);
    EXPECT_EQ(blocked[i].waiting_on, queues[i]);
    EXPECT_EQ(blocked[i].name, "waiter" + std::to_string(i));
  }
}

}  // namespace
}  // namespace bfly::chrys
