// Heartbeat/watchdog membership: surviving silent node deaths without ever
// touching the corpse.
#include "rescue/rescue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bridge/bridge.hpp"
#include "scope/scope.hpp"
#include "scope/trace_check.hpp"
#include "us/uniform_system.hpp"

namespace bfly::rescue {
namespace {

using sim::butterfly1;
using sim::Machine;

// A Uniform System grind sized so every worker is still busy when the kill
// lands at 50 ms: 400 idempotent 1 ms tasks across 8 managers, each task
// stamping its own result cell.  The killed node is a pure *worker* —
// shared memory lives on nodes 0-3, node 5 holds no data any peer touches
// — so nothing a survivor does ever references the corpse.
struct GrindSetup {
  static constexpr std::uint32_t kTasks = 400;
  us::UsConfig cfg;
  rescue::RescueConfig rc;
  GrindSetup() {
    cfg.memory_nodes = 4;
    // Keep the watchdog off node 0: the US work queue and completion
    // counter saturate that memory module during the grind, and heartbeat
    // reads queued behind it would stall detection until the grind drains.
    rc.monitor_node = 6;
  }
};

TEST(Membership, SilentKillWithNoDetectorDeadlocksTheUniformSystem) {
  // The control: node 5 goes catatonic at 50 ms with no machine-check
  // broadcast.  Its in-flight task's completion decrement is never applied,
  // no survivor ever touches node 5's memory, so wait_idle blocks forever.
  sim::FaultPlan plan;
  plan.kill_silent(5, 50 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  GrindSetup s;
  us::UniformSystem us(k, s.cfg);
  us.run_main([&] {
    us.for_all(0, GrindSetup::kTasks,
               [&](us::TaskCtx& c) { c.m.compute(2000); });
  });
  EXPECT_TRUE(m.deadlocked());
}

TEST(Membership, HeartbeatDetectionAloneCompletesTheStrandedRun) {
  // Same machine, same silent kill — plus the membership service.  The
  // watchdog notices node 5's heartbeat word stop moving, declares it, and
  // its crash broadcast excises the node from the Uniform System pool: the
  // stranded task is re-issued and the run completes.  Nobody ever
  // referenced the dead node's memory; detection came from the heartbeat
  // timeout alone.
  sim::FaultPlan plan;
  plan.kill_silent(5, 50 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  GrindSetup s;
  us::UniformSystem us(k, s.cfg);
  Membership mem(k, s.rc);  // 2 ms heartbeats, suspect after 8 ms stale
  std::vector<std::uint8_t> done(GrindSetup::kTasks, 0);
  us.run_main([&] {
    mem.start();
    us.for_all(0, GrindSetup::kTasks, [&](us::TaskCtx& c) {
      c.m.compute(2000);
      done[c.arg] = 1;  // idempotent: a re-run stamps the same cell
    });
    mem.stop();
  });
  ASSERT_FALSE(m.deadlocked());
  for (std::uint32_t i = 0; i < GrindSetup::kTasks; ++i)
    EXPECT_TRUE(done[i]) << "task " << i << " never completed";
  EXPECT_EQ(m.stats().suspects_declared, 1u);
  EXPECT_EQ(m.stats().false_suspects, 0u);
  ASSERT_EQ(mem.history().size(), 1u);
  EXPECT_EQ(mem.history()[0].node, 5u);
  EXPECT_FALSE(mem.member(5));
  EXPECT_EQ(mem.members_alive(), 7u);
  EXPECT_EQ(us.nodes_lost(), 1u);
  // Detection happened after the kill but within a few staleness windows.
  const sim::Time detect = mem.suspected_at(5);
  EXPECT_GT(detect, 50 * sim::kMillisecond);
  EXPECT_LT(detect, 80 * sim::kMillisecond);
}

TEST(Membership, VerdictReachesEveryLayerOnceWithNoWiring) {
  // The verdict is the machine's crash broadcast, so every recovery layer
  // on the machine hears it through its crash observer without being
  // wired to the detector: the Uniform System re-issues the stranded task
  // and Bridge writes off the server homed on node 5.  Repeats (a second
  // broadcast, an accusation of the declared node) reach nobody.  Bridge
  // and the membership service take ~70 ms to come up, so the kill lands
  // at 150 ms, inside a grind of 4 ms tasks.
  sim::FaultPlan plan;
  plan.kill_silent(5, 150 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  GrindSetup s;
  us::UniformSystem us(k, s.cfg);
  Membership mem(k, s.rc);
  std::vector<sim::NodeId> crashes;
  (void)m.on_node_crash([&](sim::NodeId n) { crashes.push_back(n); });
  std::uint32_t servers_lost = 0;
  std::uint32_t completed = 0;
  us.run_main([&] {
    bridge::BridgeFs fs(k, 8);  // one server per node, server 5 on node 5
    mem.start();
    ASSERT_LT(m.now(), 150 * sim::kMillisecond) << "service up pre-kill";
    us.for_all(0, GrindSetup::kTasks, [&](us::TaskCtx& c) {
      c.m.compute(8000);
      ++completed;
    });
    m.broadcast_crash(5);
    mem.denounce(5);
    mem.stop();
    servers_lost = fs.servers_lost();
    fs.shutdown();
  });
  ASSERT_FALSE(m.deadlocked());
  EXPECT_GE(completed, GrindSetup::kTasks);
  EXPECT_EQ(crashes, (std::vector<sim::NodeId>{5}));
  EXPECT_EQ(us.nodes_lost(), 1u);
  EXPECT_GE(us.tasks_reissued(), 1u) << "the kill must strand a task";
  EXPECT_EQ(servers_lost, 1u);
  EXPECT_EQ(m.stats().suspects_declared, 1u);
  EXPECT_EQ(mem.history().size(), 1u);
}

TEST(Membership, FalseAccusationIsCountedAndChangesNothing) {
  Machine m(butterfly1(8));
  scope::Tracer tracer(m);
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  std::uint32_t notified = 0;
  Membership mem(k);
  (void)m.on_node_crash([&](sim::NodeId) { ++notified; });
  us.run_main([&] {
    mem.denounce(3);         // node 3 is perfectly healthy
    m.broadcast_crash(3);    // and a direct broadcast is refused too
    us.for_all(0, 16, [](us::TaskCtx& c) { c.m.compute(500); });
  });
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(m.stats().false_suspects, 1u);
  EXPECT_EQ(m.stats().suspects_declared, 0u);
  EXPECT_TRUE(mem.member(3));
  EXPECT_EQ(mem.epoch(), 0u);
  EXPECT_EQ(notified, 0u);
  EXPECT_EQ(us.nodes_lost(), 0u);
  EXPECT_EQ(us.managers_alive(), 0u);  // terminate() stopped all 8
  // The false verdict leaves one trace instant naming the accused node.
  scope::JsonValue trace;
  ASSERT_TRUE(scope::json_parse(tracer.chrome_trace(), &trace));
  std::vector<double> accused;
  for (const scope::JsonValue& e : trace.find("traceEvents")->arr) {
    const scope::JsonValue* name = e.find("name");
    if (e.find("ph")->str == "i" && name->str == "false_suspect")
      accused.push_back(e.find("args")->find("arg")->num);
  }
  EXPECT_EQ(accused, (std::vector<double>{3}));
}

TEST(Membership, DenounceOfAGenuinelyDeadNodeDeclaresImmediately) {
  // The retry-exhaustion path: a layer that gave up on a node accuses it
  // directly, skipping the heartbeat timeout.  The verdict is checked
  // against ground truth and then published like any other suspicion.
  sim::FaultPlan plan;
  plan.kill_silent(2, 10 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  std::vector<sim::NodeId> notified;
  Membership mem(k);  // never started: denounce alone drives it
  (void)m.on_node_crash([&](sim::NodeId n) { notified.push_back(n); });
  k.create_process(0, [&] {
    k.delay(20 * sim::kMillisecond);
    mem.denounce(2);
    mem.denounce(2);  // double accusation: second is a no-op
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(m.stats().suspects_declared, 1u);
  EXPECT_EQ(mem.epoch(), 1u);
  EXPECT_EQ(notified, (std::vector<sim::NodeId>{2}));
  EXPECT_FALSE(mem.member(2));
}

TEST(Membership, ZeroFaultAnswerIsUnchangedByTheInstrumentation) {
  // The membership service charges real simulated time (heartbeats cross
  // the switch), so timing shifts — but on a healthy machine the *answer*
  // of a deterministic workload must be byte-identical with rescue on.
  auto run = [](bool with_rescue) {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    us::UniformSystem us(k);
    Membership mem(k);
    std::vector<std::uint32_t> out(64, 0);
    us.run_main([&] {
      if (with_rescue) mem.start();
      us.for_all(0, 64, [&](us::TaskCtx& c) {
        c.m.compute(1000);
        out[c.arg] = c.arg * 2654435761u;
      });
      if (with_rescue) mem.stop();
    });
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(m.stats().suspects_declared, 0u);
    EXPECT_EQ(m.stats().false_suspects, 0u);
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Membership, PartitionedNodesAreSuspectedUnreachableNotExcised) {
  // A 50/50 cut separates the monitor (node 0) from nodes 4-7 for 140 ms.
  // Their heartbeats stall, but they are alive: the watchdog must flag them
  // suspected_unreachable — still members, never excised, never counted as
  // false suspects — and graduate them back when the cut heals.  Every
  // transition bumps the epoch, fencing any stale view a healed minority
  // might still hold.  The cut opens at 80 ms: bringing up 8 daemons plus
  // the watchdog costs ~35 ms of simulated time (create_process charges a
  // serialized template pass), and the service must be fully up pre-cut.
  sim::FaultPlan plan;
  plan.partition({0, 1, 2, 3}, {4, 5, 6, 7}, 80 * sim::kMillisecond,
                 220 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Membership mem(k);  // monitor on node 0, side A
  std::uint32_t excisions = 0;
  (void)m.on_node_crash([&](sim::NodeId) { ++excisions; });
  std::uint64_t epoch_mid = 0;
  k.create_process(0, [&] {
    mem.start();
    ASSERT_LT(m.now(), 80 * sim::kMillisecond) << "service must be up pre-cut";
    auto until = [&](sim::Time t) { if (m.now() < t) k.delay(t - m.now()); };
    until(160 * sim::kMillisecond);  // deep inside the window
    for (sim::NodeId n = 4; n < 8; ++n) {
      EXPECT_TRUE(mem.member(n)) << "node " << n << " must stay a member";
      EXPECT_TRUE(mem.unreachable(n)) << "node " << n;
    }
    EXPECT_FALSE(mem.unreachable(1)) << "same-side node untouched";
    EXPECT_EQ(mem.members_unreachable(), 4u);
    epoch_mid = mem.epoch();
    until(300 * sim::kMillisecond);  // well past heal: heartbeats resumed
    for (sim::NodeId n = 4; n < 8; ++n)
      EXPECT_FALSE(mem.unreachable(n)) << "node " << n << " not restored";
    EXPECT_EQ(mem.members_unreachable(), 0u);
    mem.stop();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  // Ground truth: alive-but-unreachable is neither a declared suspicion nor
  // a false positive — it is its own state.
  EXPECT_EQ(m.stats().suspects_declared, 0u);
  EXPECT_EQ(m.stats().false_suspects, 0u);
  EXPECT_EQ(m.stats().suspects_unreachable, 4u);
  EXPECT_EQ(m.stats().unreachable_restored, 4u);
  EXPECT_EQ(mem.members_alive(), 8u);
  EXPECT_TRUE(mem.history().empty());
  // Epoch fencing: 4 bumps entering the cut, 4 more on restore.
  EXPECT_EQ(epoch_mid, 4u);
  EXPECT_EQ(mem.epoch(), 8u);
  EXPECT_EQ(excisions, 0u);
}

TEST(Membership, DenounceOfAPartitionedNodeFlagsInsteadOfExcising) {
  // The retry-exhaustion accusation path must make the same distinction the
  // watchdog does: an accusee the monitor cannot reach is alive, so it is
  // flagged suspected_unreachable rather than declared or dismissed.
  sim::FaultPlan plan;
  plan.partition({0}, {3}, 10 * sim::kMillisecond, 100 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  Membership mem(k);  // never started: denounce alone drives it
  k.create_process(0, [&] {
    k.delay(50 * sim::kMillisecond);  // inside the window
    mem.denounce(3);
    mem.denounce(3);  // already flagged: second accusation is a no-op
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_TRUE(mem.member(3));
  EXPECT_TRUE(mem.unreachable(3));
  EXPECT_EQ(mem.members_unreachable(), 1u);
  EXPECT_EQ(mem.epoch(), 1u);
  EXPECT_EQ(m.stats().suspects_unreachable, 1u);
  EXPECT_EQ(m.stats().false_suspects, 0u);
  EXPECT_EQ(m.stats().suspects_declared, 0u);
}

TEST(Membership, DeathWhilePartitionedGraduatesToExcision) {
  // A node that dies while flagged suspected_unreachable: the later verdict
  // wins.  The declaration clears the unreachable flag so the two counters
  // never double-book one node.
  sim::FaultPlan plan;
  plan.partition({0}, {3}, 10 * sim::kMillisecond, 200 * sim::kMillisecond);
  plan.kill_silent(3, 60 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  Membership mem(k);
  k.create_process(0, [&] {
    k.delay(30 * sim::kMillisecond);
    mem.denounce(3);  // alive but cut off: flagged
    EXPECT_TRUE(mem.unreachable(3));
    k.delay(50 * sim::kMillisecond);  // node 3 is dead now
    mem.denounce(3);  // the accusation sticks this time
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_FALSE(mem.member(3));
  EXPECT_FALSE(mem.unreachable(3));
  EXPECT_EQ(mem.members_unreachable(), 0u);
  EXPECT_EQ(m.stats().suspects_declared, 1u);
  EXPECT_EQ(m.stats().suspects_unreachable, 1u);
  EXPECT_EQ(m.stats().unreachable_restored, 0u);
  EXPECT_EQ(mem.epoch(), 2u);
}

TEST(Membership, ConfigSanityIsEnforced) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  RescueConfig bad;
  bad.suspect_after = bad.heartbeat_period;  // would suspect the healthy
  EXPECT_THROW(Membership(k, bad), sim::SimError);
  RescueConfig off_machine;
  off_machine.monitor_node = 99;
  EXPECT_THROW(Membership(k, off_machine), sim::SimError);
}

}  // namespace
}  // namespace bfly::rescue
