// Every runtime that starts processes and joins them comes up degraded on a
// machine that loses a node while it starts them, and its join returns.
//
// For each layer a clean run measures the window in which the layer starts
// its processes; then one member's node is loud-killed at the quarter steps
// of that window and once more mid-body, each in a fresh machine.  Every
// run must join, end without a deadlock, and lose exactly that member.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "antfarm/antfarm.hpp"
#include "crowd/crowd.hpp"
#include "lynx/lynx.hpp"
#include "net/mesh.hpp"
#include "smp/family.hpp"
#include "us/uniform_system.hpp"

namespace bfly {
namespace {

using sim::kMillisecond;
using sim::Machine;
using sim::Time;

constexpr Time kBody = 100 * kMillisecond;  // each member's own work
constexpr sim::NodeId kVictim = 3;
constexpr sim::NodeId kCreator = 7;

struct Outcome {
  bool joined = false;
  bool deadlocked = false;
  Time begin = 0;   // the layer starts its processes...
  Time end = 0;     // ...until here
  Time finish = 0;  // the join returned
  std::uint32_t done = 0;  // member bodies that ran to the end
  std::optional<std::uint64_t> lost;  // where the layer counts it
};

using Layer = std::function<Outcome(std::optional<Time> kill_at)>;

/// Node kVictim dies (loudly) at `kill_at`.
sim::FaultPlan plan(std::optional<Time> kill_at) {
  sim::FaultPlan p;
  if (kill_at) p.kill(kVictim, *kill_at);
  return p;
}

/// Outcome `creator` as a process on kCreator and record how the run ended.
Outcome drive(Machine& m, chrys::Kernel& k,
          const std::function<void(Outcome&)>& creator) {
  Outcome r;
  k.create_process(kCreator, [&] {
    creator(r);
    r.joined = true;
    r.finish = m.now();
  }, "creator");
  m.run();
  r.deadlocked = m.deadlocked();
  return r;
}

/// The quarter steps of the clean run's start-up window, then mid-body.
/// A kill needs a nonzero time, so a window that opens at 0 starts at 1 ns.
std::vector<Time> kill_times(const Outcome& clean) {
  std::vector<Time> at;
  for (Time q = 0; q <= 4; ++q)
    at.push_back(std::max<Time>(
        1, clean.begin + (clean.end - clean.begin) * q / 4));
  at.push_back(clean.end + (clean.finish - clean.end) / 2);
  return at;
}

void expect_degraded(const Outcome& r, Time at, std::uint32_t survivors) {
  EXPECT_TRUE(r.joined) << "kill at " << at;
  EXPECT_FALSE(r.deadlocked) << "kill at " << at;
  EXPECT_EQ(r.done, survivors) << "kill at " << at;
  if (r.lost) {
    EXPECT_EQ(*r.lost, 1u) << "kill at " << at;
  }
}

/// `done` bodies run to the end in the clean run, `survivors` in each
/// degraded one.
void sweep(const Layer& layer, std::uint32_t done, std::uint32_t survivors) {
  const Outcome clean = layer(std::nullopt);
  ASSERT_TRUE(clean.joined);
  ASSERT_FALSE(clean.deadlocked);
  ASSERT_EQ(clean.done, done);
  ASSERT_LT(clean.begin, clean.end);
  for (const Time at : kill_times(clean))
    expect_degraded(layer(at), at, survivors);
}

// --- The layers ---------------------------------------------------------

// ring(4) on nodes 0-3; each body waits kBody.
Outcome family(std::optional<Time> kill_at) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  return drive(m, k, [&](Outcome& r) {
    r.begin = m.now();
    smp::Family fam(k, smp::Topology::ring(4), [&](smp::Member&) {
      k.delay(kBody);
      ++r.done;
    });
    r.end = m.now();
    fam.join();
  });
}

// A 1x4 line on nodes 0-3.  Element 3 writes one value west after kBody;
// element 2 reads it, so a lost element 3 must break that stream.
Outcome mesh(std::optional<Time> kill_at) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  return drive(m, k, [&](Outcome& r) {
    r.begin = m.now();
    net::Mesh mesh(k, 1, 4, [&](net::Element& e) {
      if (e.col() == 2) {
        const int err = k.catch_block([&] {
          (void)e.in(net::Direction::kEast)->read_value<std::uint32_t>();
        });
        EXPECT_EQ(err, kill_at ? chrys::kThrowBrokenStream : 0);
      } else {
        k.delay(kBody);
        if (e.col() == 3)
          e.out(net::Direction::kWest)->write_value<std::uint32_t>(1);
      }
      ++r.done;
    });
    r.end = m.now();
    mesh.join();
    r.lost = mesh.elements_lost();
  });
}

// Four Lynx processes on nodes 0-3, launched by start().
Outcome lynx(std::optional<Time> kill_at) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  return drive(m, k, [&](Outcome& r) {
    lynx::Runtime rt(k);
    for (sim::NodeId n = 0; n < 4; ++n)
      rt.spawn(n, [&](lynx::Proc&) {
        m.charge(kBody);
        ++r.done;
      });
    r.begin = m.now();
    rt.start();
    r.end = m.now();
    rt.join();
  });
}

// A colony on nodes 0-3 with one thread on each node but the victim's.
Outcome colony(std::optional<Time> kill_at) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  return drive(m, k, [&](Outcome& r) {
    r.begin = m.now();
    antfarm::Colony col(k, 4);
    r.end = m.now();
    for (sim::NodeId n = 0; n < 4; ++n)
      if (n != kVictim)
        col.start(n, [&] {
          m.charge(kBody);
          ++r.done;
        });
    col.join();
  });
}

// Seven workers on nodes 0-6, created through a binary tree (worker 3 is
// a leaf) or serially; each waits kBody.
Outcome crowd(std::optional<Time> kill_at, bool tree) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  return drive(m, k, [&](Outcome& r) {
    r.begin = m.now();
    const auto fn = [&](std::uint32_t) {
      r.end = std::max(r.end, m.now());  // the last worker to start
      k.delay(kBody);
      ++r.done;
    };
    if (tree)
      crowd::spread(k, 7, fn);
    else
      crowd::spread_serial(k, 7, fn);
  });
}

// Serial manager creation on all 8 nodes, then one for_all.
Outcome uniform_system(std::optional<Time> kill_at) {
  Machine m(sim::butterfly1(8), plan(kill_at));
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  Outcome r;
  us.run_main([&] {
    r.end = m.now();
    us.for_all(0, 64, [&](us::TaskCtx& c) {
      c.m.compute(20000);
      ++r.done;
    });
    r.joined = true;
    r.finish = m.now();
  });
  r.deadlocked = m.deadlocked();
  r.lost = us.nodes_lost();
  return r;
}

// --- Sweeps -------------------------------------------------------------

TEST(DegradedStart, FamilyAtEveryKillTime) { sweep(family, 4, 3); }

TEST(DegradedStart, MeshAtEveryKillTime) { sweep(mesh, 4, 3); }

TEST(DegradedStart, LynxAtEveryKillTime) { sweep(lynx, 4, 3); }

// The colony's members are its runtimes; the survivors' threads all run.
TEST(DegradedStart, ColonyAtEveryKillTime) { sweep(colony, 3, 3); }

TEST(DegradedStart, SpreadAtEveryKillTime) {
  sweep([](std::optional<Time> at) { return crowd(at, true); }, 7, 6);
}

TEST(DegradedStart, SpreadSerialAtEveryKillTime) {
  sweep([](std::optional<Time> at) { return crowd(at, false); }, 7, 6);
}

// Every task still runs: a lost manager's tasks go to the survivors.
TEST(DegradedStart, UniformSystemAtEveryKillTime) {
  sweep(uniform_system, 64, 64);
}

// --- The cases that crashed or wedged before the crew --------------------
//
// Each kills one node of a small machine at `at`; the creator runs on node
// 0 and must come back from its join.

struct Case {
  bool joined = false;
  bool deadlocked = false;
  std::vector<std::uint32_t> ran;  // completed bodies, by worker or node
};

Case run_case(std::uint32_t nodes, sim::NodeId victim, Time at,
              const std::function<void(chrys::Kernel&, Case&)>& creator) {
  Machine m(sim::butterfly1(nodes));
  chrys::Kernel k(m);
  m.kill_node(victim, at);
  Case c;
  c.ran.assign(nodes, 0);
  k.create_process(0, [&] {
    creator(k, c);
    c.joined = true;
  }, "creator");
  m.run();
  c.deadlocked = m.deadlocked();
  return c;
}

// spread(8) with node 3 dead from the start: worker 3 is lost and takes its
// child, worker 7, with it; worker 1, which starts it, runs on.
Case spread_case(Time at, bool tree, Time body = 0) {
  return run_case(8, 3, at, [&](chrys::Kernel& k, Case& c) {
    const auto fn = [&](std::uint32_t w) {
      if (body != 0) k.delay(body);
      ++c.ran[w];
    };
    if (tree)
      crowd::spread(k, 8, fn);
    else
      crowd::spread_serial(k, 8, fn);
  });
}

TEST(DegradedStart, SpreadWorkerOnADeadNode) {
  const Case c = spread_case(1, true);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{1, 1, 1, 0, 1, 1, 1, 0}));
}

TEST(DegradedStart, SpreadSerialWorkerOnADeadNode) {
  const Case c = spread_case(1, false);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{1, 1, 1, 0, 1, 1, 1, 1}));
}

TEST(DegradedStart, SpreadWorkerKilledMidBody) {
  const Case c = spread_case(100 * kMillisecond, true, 200 * kMillisecond);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{1, 1, 1, 0, 1, 1, 1, 1}));
}

TEST(DegradedStart, FamilyMemberKilledMidBody) {
  // ring(4) is built by 16.25 ms; node 2 dies while the bodies wait.
  const Case c =
      run_case(4, 2, 60 * kMillisecond, [](chrys::Kernel& k, Case& c) {
        smp::Family fam(k, smp::Topology::ring(4), [&](smp::Member& me) {
          k.delay(100 * kMillisecond);
          ++c.ran[me.index()];
        });
        fam.join();
      });
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{1, 1, 0, 1}));
}

// A colony on nodes 0-3 of 8 with threads on nodes 1 and 3.
Case colony_case(Time at) {
  return run_case(8, 2, at, [](chrys::Kernel& k, Case& c) {
    antfarm::Colony col(k, 4);
    for (const sim::NodeId n : {1u, 3u})
      col.start(n, [&k, &c, n] {
        k.machine().charge(100 * kMillisecond);
        ++c.ran[n];
      });
    col.join();
  });
}

TEST(DegradedStart, ColonyRuntimeOnADeadNode) {
  const Case c = colony_case(1);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 0, 0, 0}));
}

TEST(DegradedStart, ColonyRuntimeKilledAfterStart) {
  const Case c = colony_case(60 * kMillisecond);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 0, 0, 0}));
}

// Lynx processes on nodes 1-3 of 4.
Case lynx_case(Time at) {
  return run_case(4, 2, at, [](chrys::Kernel& k, Case& c) {
    lynx::Runtime rt(k);
    for (sim::NodeId n = 1; n < 4; ++n)
      rt.spawn(n, [&k, &c, n](lynx::Proc&) {
        k.machine().charge(100 * kMillisecond);
        ++c.ran[n];
      });
    rt.join();
  });
}

TEST(DegradedStart, LynxProcOnADeadNode) {
  const Case c = lynx_case(1);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{0, 1, 0, 1}));
}

TEST(DegradedStart, LynxProcKilledMidBody) {
  const Case c = lynx_case(60 * kMillisecond);
  EXPECT_TRUE(c.joined);
  EXPECT_FALSE(c.deadlocked);
  EXPECT_EQ(c.ran, (std::vector<std::uint32_t>{0, 1, 0, 1}));
}

}  // namespace
}  // namespace bfly
