#include "antfarm/antfarm.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace bfly::antfarm {
namespace {

using sim::butterfly1;
using sim::Machine;

// Runs `body` on a creator process with a colony; the colony is joined
// after body returns, so any state the threads touch must be declared in
// the caller's scope (it must outlive `body`).
void with_colony(std::uint32_t machine_nodes, std::uint32_t colony_nodes,
                 std::function<void(chrys::Kernel&, Colony&)> body) {
  Machine m(butterfly1(machine_nodes));
  chrys::Kernel k(m);
  k.create_process(0, [&] {
    Colony col(k, colony_nodes);
    body(k, col);
    col.join();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(AntFarm, ThreadsRunOnTheirNodes) {
  std::vector<sim::NodeId> where;
  with_colony(8, 4, [&where](chrys::Kernel&, Colony& col) {
    for (sim::NodeId n = 0; n < 4; ++n)
      col.start(n, [&col, &where] {
        where.push_back(Colony::node_of(col.self()));
      });
  });
  std::sort(where.begin(), where.end());
  EXPECT_EQ(where, (std::vector<sim::NodeId>{0, 1, 2, 3}));
}

TEST(AntFarm, ManyThreadsOnOneProcess) {
  // The point of Ant Farm: far more threads than a node could hold
  // processes (SARs limited processes to a handful per node).
  int count = 0;
  with_colony(4, 2, [&count](chrys::Kernel&, Colony& col) {
    for (int i = 0; i < 300; ++i)
      col.start(i % 2, [&count] { ++count; });
  });
  EXPECT_EQ(count, 300);
}

TEST(AntFarm, SendReceiveAcrossNodes) {
  std::uint64_t got = 0;
  with_colony(8, 4, [&got](chrys::Kernel&, Colony& col) {
    const ThreadId receiver =
        col.start(3, [&col, &got] { got = col.receive(); });
    col.start(1, [&col, receiver] { col.send(receiver, 777); });
  });
  EXPECT_EQ(got, 777u);
}

TEST(AntFarm, BlockingReceiveSwitchesToOtherThreads) {
  // A blocked thread must not stall its siblings on the same node.
  std::vector<int> order;
  with_colony(4, 1, [&order](chrys::Kernel&, Colony& col) {
    const ThreadId waiter = col.start(0, [&col, &order] {
      (void)col.receive();  // blocks: no message yet
      order.push_back(2);
    });
    col.start(0, [&col, &order, waiter] {
      order.push_back(1);  // runs while the waiter is blocked
      col.send(waiter, 1);
    });
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(AntFarm, TokenRingAcrossColony) {
  std::uint64_t final_v = 0;
  std::vector<ThreadId> ring(8);
  with_colony(8, 8, [&](chrys::Kernel&, Colony& col) {
    for (sim::NodeId n = 0; n < 8; ++n) {
      ring[n] = col.start(n, [&col, &ring, &final_v, n] {
        const std::uint64_t v = col.receive();
        if (n == 0) {
          final_v = v;
          return;
        }
        col.send(ring[(n + 1) % 8], v + 1);
      });
    }
    col.send(ring[1], 1);  // kick off at node 1: walks 1..7 then back to 0
  });
  EXPECT_EQ(final_v, 8u);
}

TEST(AntFarm, OneThreadPerGraphNodeShortestPath) {
  // The motivating use: one lightweight thread per graph vertex running a
  // wavefront shortest-path relaxation.
  constexpr std::uint32_t kV = 24;
  std::vector<std::vector<std::uint32_t>> adj(kV);
  for (std::uint32_t v = 0; v < kV; ++v) {
    adj[v].push_back((v + 1) % kV);
    adj[(v + 1) % kV].push_back(v);
    if (v % 4 == 0) {
      adj[v].push_back((v + 7) % kV);
      adj[(v + 7) % kV].push_back(v);
    }
  }
  std::vector<std::uint32_t> dist(kV, 0xffffffffu);
  std::vector<ThreadId> tid(kV);
  with_colony(8, 8, [&](chrys::Kernel&, Colony& col) {
    for (std::uint32_t v = 0; v < kV; ++v) {
      tid[v] = col.start(v % 8, [&, v] {
        while (true) {
          const std::uint64_t d = col.receive();
          if (d == ~0ull) return;  // shutdown token
          if (d >= dist[v]) continue;
          dist[v] = static_cast<std::uint32_t>(d);
          for (std::uint32_t u : adj[v]) col.send(tid[u], d + 1);
        }
      });
    }
    col.send(tid[0], 0);
    // Termination: a supervisor waits for the wave to die down, then
    // broadcasts shutdown tokens.
    col.start(0, [&] {
      for (std::uint32_t i = 0; i < kV * 6; ++i) col.yield();
      for (std::uint32_t v = 0; v < kV; ++v) col.send(tid[v], ~0ull);
    });
  });
  // Verify against host BFS.
  std::vector<std::uint32_t> ref(kV, 0xffffffffu);
  std::deque<std::uint32_t> q{0};
  ref[0] = 0;
  while (!q.empty()) {
    const auto v = q.front();
    q.pop_front();
    for (auto u : adj[v])
      if (ref[u] == 0xffffffffu) {
        ref[u] = ref[v] + 1;
        q.push_back(u);
      }
  }
  EXPECT_EQ(dist, ref);
}

TEST(AntFarm, GallocScattersAcrossNodes) {
  std::vector<sim::NodeId> nodes;
  with_colony(8, 4, [&nodes](chrys::Kernel&, Colony& col) {
    col.start(0, [&col, &nodes] {
      for (int i = 0; i < 8; ++i) nodes.push_back(col.galloc(64).node);
    });
  });
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<sim::NodeId>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(AntFarm, ThreadSwitchIsMuchCheaperThanProcessCreation) {
  Machine m(butterfly1(2));
  chrys::Kernel k(m);
  sim::Time thread_cost = 0, process_cost = 0;
  k.create_process(0, [&] {
    Colony col(k, 1);
    sim::Time t0 = m.now();
    constexpr int kThreads = 200;
    for (int i = 0; i < kThreads; ++i) col.start(0, [] {});
    col.join();
    thread_cost = (m.now() - t0) / kThreads;  // marginal cost per thread
    t0 = m.now();
    k.create_process(1, [] {});
    process_cost = m.now() - t0;
  });
  m.run();
  EXPECT_LT(thread_cost * 5, process_cost)
      << "lightweight threads must be far cheaper than Chrysalis processes";
}

TEST(AntFarm, ThreadYieldingWhileItsNodeDiesDoesNotWakeTheDeadScheduler) {
  // The thread is charging when node 1 dies, so the kill unwinds the
  // parked scheduler first and the machine frees its fiber.  The thread
  // unwinds when its resume fires, and a destructor on its stack yields:
  // that must not wake the freed scheduler fiber.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  bool unwound = false;
  k.create_process(0, [&] {
    Colony col(k, 2);
    col.start(1, [&] {
      struct YieldOnUnwind {
        Colony& col;
        bool& unwound;
        ~YieldOnUnwind() {
          unwound = true;
          col.yield();
        }
      } guard{col, unwound};
      for (;;) m.charge(sim::kMillisecond);
    });
    m.charge(100 * sim::kMillisecond);
    // The colony cannot be joined: its thread on node 1 never finishes.
    m.engine().stop();
  });
  m.kill_node(1, 50 * sim::kMillisecond);
  m.run();
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(m.node_alive(0));
  EXPECT_FALSE(m.node_alive(1));
}

}  // namespace
}  // namespace bfly::antfarm
