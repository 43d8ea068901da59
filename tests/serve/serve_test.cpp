// bfly::serve unit behaviour: replicated placement, read-any/write-all
// survival of a replica kill, background re-replication, admission control,
// deadline budgets, and hedged reads against a gray-failed server.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

namespace bfly::serve {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t b,
                std::uint8_t salt = 0) {
  blk.assign(bridge::kBlockSize, 0);
  for (std::size_t i = 0; i < bridge::kBlockSize; ++i)
    blk[i] = static_cast<std::uint8_t>((b * 37 + i * 3 + salt) % 249);
}

void with_serve(std::uint32_t nodes, std::uint32_t servers, ServeConfig cfg,
                sim::FaultPlan plan,
                const std::function<void(chrys::Kernel&, Machine&,
                                         bridge::BridgeFs&, ReplicatedFs&)>&
                    body) {
  Machine m(butterfly1(nodes), plan);
  chrys::Kernel k(m);
  k.create_process(nodes - 1, [&] {
    bridge::BridgeFs fs(k, servers);
    {
      ReplicatedFs rfs(k, fs, nullptr, cfg);
      body(k, m, fs, rfs);
      rfs.stop_repair();
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

ServeConfig quiet_cfg() {
  ServeConfig cfg;
  // A healthy Bridge access is ~26 ms, too close to the default 30 ms
  // hedge floor to keep unit-test counters clean; hedging gets its own
  // dedicated tests below.
  cfg.hedge_floor = 500 * sim::kMillisecond;
  return cfg;
}

TEST(Serve, ReplicatedRoundTrip) {
  with_serve(8, 4, quiet_cfg(), sim::FaultPlan{},
             [](chrys::Kernel&, Machine&, bridge::BridgeFs&,
                ReplicatedFs& rfs) {
               const bridge::FileId f = rfs.open("data", 16);
               std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
               for (std::uint32_t b = 0; b < 8; ++b) {
                 fill_block(blk, b);
                 ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
               }
               EXPECT_EQ(rfs.blocks(f), 8u);
               for (std::uint32_t b = 0; b < 8; ++b) {
                 ASSERT_EQ(rfs.read(f, b, back.data()), Status::kOk);
                 fill_block(blk, b);
                 EXPECT_EQ(back, blk) << "block " << b;
                 EXPECT_EQ(rfs.live_replicas(f, b), 3u);
               }
               const ServeCounters& c = rfs.counters();
               EXPECT_EQ(c.reads, 8u);
               EXPECT_EQ(c.writes, 8u);
               EXPECT_EQ(c.retries, 0u);
               EXPECT_EQ(c.sheds, 0u);
               EXPECT_EQ(c.timeouts, 0u);
               EXPECT_EQ(c.failed_replicas, 0u);
               // Benches export the counters through json().
               EXPECT_NE(c.json().find("\"serve_timeouts\":0"),
                         std::string::npos)
                   << c.json();
             });
}

TEST(Serve, ServiceSurvivesALoudReplicaKill) {
  // Server 1 (node 1) dies after the initial writes: every block stays
  // readable through its other replicas, and writes keep committing on the
  // survivors while the dead arm is counted and queued for repair.
  sim::FaultPlan plan;
  plan.kill(1, 800 * sim::kMillisecond);
  with_serve(
      8, 4, quiet_cfg(), plan,
      [](chrys::Kernel& k, Machine&, bridge::BridgeFs&, ReplicatedFs& rfs) {
        const bridge::FileId f = rfs.open("data", 16);
        std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b);
          ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        while (k.node_alive(1)) k.delay(50 * sim::kMillisecond);
        std::uint32_t degraded = 0;
        for (std::uint32_t b = 0; b < 8; ++b) {
          ASSERT_EQ(rfs.read(f, b, back.data()), Status::kOk) << "block " << b;
          fill_block(blk, b);
          EXPECT_EQ(back, blk) << "block " << b;
          if (rfs.live_replicas(f, b) < 3) ++degraded;
        }
        EXPECT_GT(degraded, 0u) << "some block must have lost a replica";
        // Writes still land on the survivors.
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b, /*salt=*/7);
          ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        EXPECT_GT(rfs.counters().failed_replicas, 0u);
        for (std::uint32_t b = 0; b < 8; ++b) {
          ASSERT_EQ(rfs.read(f, b, back.data()), Status::kOk);
          fill_block(blk, b, /*salt=*/7);
          EXPECT_EQ(back, blk) << "block " << b;
        }
      });
}

TEST(Serve, RepairWorkerRestoresFullReplication) {
  sim::FaultPlan plan;
  plan.kill(2, 600 * sim::kMillisecond);
  with_serve(
      8, 4, quiet_cfg(), plan,
      [](chrys::Kernel& k, Machine&, bridge::BridgeFs&, ReplicatedFs& rfs) {
        const bridge::FileId f = rfs.open("data", 16);
        std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b);
          ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        rfs.start_repair(6);  // a client node, not a server
        while (k.node_alive(2)) k.delay(50 * sim::kMillisecond);
        // The crash broadcast queued re-replication of everything server 2
        // held; wait for the worker to drain it.
        for (int i = 0; i < 400 && !rfs.repair_idle(); ++i)
          k.delay(20 * sim::kMillisecond);
        ASSERT_TRUE(rfs.repair_idle());
        EXPECT_GT(rfs.counters().rereplications, 0u);
        EXPECT_EQ(rfs.counters().lost_blocks, 0u);
        for (std::uint32_t b = 0; b < 8; ++b) {
          EXPECT_EQ(rfs.live_replicas(f, b), 3u) << "block " << b;
          ASSERT_EQ(rfs.read(f, b, back.data()), Status::kOk);
          fill_block(blk, b);
          EXPECT_EQ(back, blk) << "block " << b;
        }
      });
}

TEST(Serve, AdmissionControlShedsWhenEveryQueueIsOverLimit) {
  // queue_limit 0 makes every candidate shed: the layered fs must give up
  // with kShed (after its bounded retries), never hang, and count the
  // sheds.  A sibling layer with a sane limit over the same Bridge serves
  // the same data fine — placement is pure hashing, so both agree.
  with_serve(8, 4, quiet_cfg(), sim::FaultPlan{},
             [](chrys::Kernel& k, Machine& m, bridge::BridgeFs& fs,
                ReplicatedFs& rfs) {
               const bridge::FileId f = rfs.open("data", 16);
               std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
               fill_block(blk, 0);
               ASSERT_EQ(rfs.write(f, 0, blk.data()), Status::kOk);

               ServeConfig strangled = quiet_cfg();
               strangled.queue_limit = 0;
               strangled.retry.attempts = 2;
               ReplicatedFs choked(k, fs, nullptr, strangled);
               (void)choked.open("data", 16);
               const Time t0 = m.now();
               EXPECT_EQ(choked.read(f, 0, back.data()), Status::kShed);
               EXPECT_EQ(choked.write(f, 0, blk.data()), Status::kShed);
               EXPECT_LT(m.now() - t0, strangled.deadline * 2);
               EXPECT_GT(choked.counters().sheds, 0u);
               // The healthy layer is unbothered.
               ASSERT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
               fill_block(blk, 0);
               EXPECT_EQ(back, blk);
             });
}

TEST(Serve, DeadlineBoundsRequestsAgainstAnAllSlowCluster) {
  // Both servers gray-fail with a 100x service stretch: nothing can answer
  // inside the budget, so reads and writes return kTimeout close to the
  // deadline — they never hang, and never overshoot by more than the
  // charges already in flight.
  sim::FaultPlan plan;
  plan.slow(0, sim::kMillisecond, 1000 * sim::kSecond, 100.0);
  plan.slow(1, sim::kMillisecond, 1000 * sim::kSecond, 100.0);
  ServeConfig cfg = quiet_cfg();
  cfg.replicas = 2;
  cfg.deadline = 150 * sim::kMillisecond;
  cfg.retry.attempts = 2;
  cfg.hedge_reads = false;
  with_serve(4, 2, cfg, plan,
             [&cfg](chrys::Kernel&, Machine& m, bridge::BridgeFs&,
                    ReplicatedFs& rfs) {
               const bridge::FileId f = rfs.open("data", 8);
               std::vector<std::uint8_t> blk(bridge::kBlockSize, 9);
               std::vector<std::uint8_t> back(bridge::kBlockSize);
               const Time slack = 60 * sim::kMillisecond;
               Time t0 = m.now();
               EXPECT_EQ(rfs.write(f, 0, blk.data()), Status::kTimeout);
               EXPECT_LE(m.now() - t0, cfg.deadline + slack);
               t0 = m.now();
               EXPECT_EQ(rfs.read(f, 0, back.data()), Status::kTimeout);
               EXPECT_LE(m.now() - t0, cfg.deadline + slack);
               EXPECT_GE(rfs.counters().timeouts, 2u);
             });
}

TEST(Serve, HedgedReadsBeatAGrayFailedServer) {
  // Server 2 answers 40x slow — alive to any heartbeat, lethal to tail
  // latency.  A hedged layer re-issues stragglers after ~40 ms and its
  // worst read beats the unhedged layer's by well over the 2x the serving
  // experiment demands.
  auto worst_read = [](bool hedge, std::uint64_t* hedges,
                       std::uint64_t* wins) {
    sim::FaultPlan plan;
    plan.slow(2, 2 * sim::kSecond, 1000 * sim::kSecond, 40.0);
    Machine m(butterfly1(8), plan);
    chrys::Kernel k(m);
    Time worst = 0;
    k.create_process(7, [&] {
      bridge::BridgeFs fs(k, 4);
      {
        ServeConfig cfg;
        cfg.hedge_reads = hedge;
        cfg.hedge_floor = 40 * sim::kMillisecond;
        cfg.min_hedge_samples = 1u << 20;  // pin the threshold to the floor
        cfg.deadline = 10 * sim::kSecond;
        ReplicatedFs rfs(k, fs, nullptr, cfg);
        const bridge::FileId f = rfs.open("data", 16);
        std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b);
          EXPECT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        while (m.now() < 2 * sim::kSecond) k.delay(100 * sim::kMillisecond);
        for (std::uint32_t pass = 0; pass < 3; ++pass) {
          for (std::uint32_t b = 0; b < 8; ++b) {
            const Time t0 = m.now();
            EXPECT_EQ(rfs.read(f, b, back.data()), Status::kOk);
            worst = std::max(worst, m.now() - t0);
            fill_block(blk, b);
            EXPECT_EQ(back, blk) << "pass " << pass << " block " << b;
          }
        }
        if (hedges != nullptr) *hedges = rfs.counters().hedges;
        if (wins != nullptr) *wins = rfs.counters().hedge_wins;
      }
      fs.shutdown();
    });
    m.run();
    EXPECT_FALSE(m.deadlocked());
    return worst;
  };
  std::uint64_t hedges = 0;
  std::uint64_t wins = 0;
  const Time hedged = worst_read(true, &hedges, &wins);
  const Time unhedged = worst_read(false, nullptr, nullptr);
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(wins, 0u);
  EXPECT_LE(hedged * 2, unhedged)
      << "hedged worst " << hedged << " vs unhedged " << unhedged;
}

TEST(Serve, ConfigIsValidated) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  k.create_process(3, [&] {
    bridge::BridgeFs fs(k, 2);
    ServeConfig bad;
    bad.replicas = 3;  // only 2 servers
    EXPECT_THROW(ReplicatedFs(k, fs, nullptr, bad), sim::SimError);
    bad = ServeConfig{};
    bad.replicas = 0;
    EXPECT_THROW(ReplicatedFs(k, fs, nullptr, bad), sim::SimError);
    bad = ServeConfig{};
    bad.deadline = 0;
    EXPECT_THROW(ReplicatedFs(k, fs, nullptr, bad), sim::SimError);
    bad = ServeConfig{};
    bad.retry.attempts = 0;
    EXPECT_THROW(ReplicatedFs(k, fs, nullptr, bad), sim::SimError);
    ServeConfig ok;
    ok.replicas = 2;
    ReplicatedFs rfs(k, fs, nullptr, ok);
    EXPECT_THROW(rfs.open("f", 0), sim::SimError);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

}  // namespace
}  // namespace bfly::serve
