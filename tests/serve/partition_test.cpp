// Partition tolerance for bfly::serve: majority-quorum writes under a
// split-brain cut (no minority-side acks), the per-block dirty log driving
// heal-time reconciliation, resync()'s majority vote over divergent
// committed writes, and Instant Replay log equality across a full
// cut-and-heal cycle.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "replay/instant_replay.hpp"
#include "serve/serve.hpp"

namespace bfly::serve {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t b,
                std::uint8_t salt) {
  blk.assign(bridge::kBlockSize, 0);
  for (std::size_t i = 0; i < bridge::kBlockSize; ++i)
    blk[i] = static_cast<std::uint8_t>((b * 41 + i * 7 + salt) % 247);
}

// Replica placement is a pure function of (file, block, server count), so a
// plan-free probe run tells us which server nodes hold block 0's three
// replicas — the partition plans below are built around that answer.
std::array<sim::NodeId, 3> replica_nodes_of_block0() {
  std::array<sim::NodeId, 3> nodes{};
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ReplicatedFs rfs(k, fs);
      const bridge::FileId f = rfs.open("probe", 4);
      for (std::uint32_t r = 0; r < 3; ++r)
        nodes[r] = fs.server_node(rfs.replica_server(f, 0, r));
    }
    fs.shutdown();
  });
  m.run();
  return nodes;
}

// --- Quorum refusal, dirty log, heal-driven reconciliation ----------------
// The cut isolates replica 0 (plus a client on node 4) from replicas 1-2
// (plus a client on node 5).  The fourth server, the orchestrator (node 7)
// and the repair worker (node 6) sit on neither side and keep full
// connectivity throughout.

TEST(ServePartition, MinoritySideIsRefusedWhileMajorityAcksThenHealReconciles) {
  const auto rep = replica_nodes_of_block0();
  sim::FaultPlan plan;
  plan.partition({rep[0], 4}, {rep[1], rep[2], 5}, 200 * sim::kMillisecond,
                 600 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Status st_minority = Status::kOk;
  Status st_majority = Status::kTimeout;
  std::uint32_t clients_done = 0;
  std::size_t dirty_mid = 0;
  bool mid_read_ok = false, mid_matches_majority = false;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ReplicatedFs rfs(k, fs);
      const bridge::FileId f = rfs.open("split", 4);
      std::vector<std::uint8_t> seed, majority_blk, back(bridge::kBlockSize);
      fill_block(seed, 0, 1);
      EXPECT_EQ(rfs.write(f, 0, seed.data()), Status::kOk);  // pre-cut: 3-way
      rfs.start_repair(6);

      // Minority client: reaches only replica 0 — one commit out of a
      // 2-of-3 quorum, so the write must be refused, and the rogue commit
      // dirty-logged for the heal to revert.
      k.create_process(4, [&] {
        k.delay(300 * sim::kMillisecond);
        std::vector<std::uint8_t> y;
        fill_block(y, 0, 2);
        st_minority = rfs.write(f, 0, y.data());
        ++clients_done;
      });
      // Majority client: replicas 1-2 commit, replica 0 is unreachable —
      // acked, with the stale arm dirty-logged.
      k.create_process(5, [&] {
        k.delay(400 * sim::kMillisecond);
        fill_block(majority_blk, 0, 3);
        st_majority = rfs.write(f, 0, majority_blk.data());
        std::vector<std::uint8_t> mb(bridge::kBlockSize);
        if (rfs.read(f, 0, mb.data()) == Status::kOk) {
          mid_read_ok = true;  // read routed around the unreachable replica
          mid_matches_majority = (mb == majority_blk);
        }
        ++clients_done;
      });
      while (clients_done < 2) k.delay(10 * sim::kMillisecond);
      dirty_mid = rfs.dirty_blocks();
      while (m.now() < 700 * sim::kMillisecond)
        k.delay(10 * sim::kMillisecond);  // heal fires at 600 ms
      for (int i = 0; i < 200 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      EXPECT_TRUE(rfs.repair_idle());
      EXPECT_EQ(rfs.dirty_blocks(), 0u) << "dirty log drained by the heal";
      EXPECT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
      EXPECT_EQ(back, majority_blk) << "the acked write is the survivor";
      EXPECT_EQ(rfs.live_replicas(f, 0), 3u);
      EXPECT_EQ(rfs.resync(f), 0u) << "reconciliation already converged it";
      EXPECT_EQ(rfs.counters().quorum_rejects, 1u);
      EXPECT_GE(rfs.counters().dirty_logged, 1u);
      EXPECT_EQ(rfs.counters().reconciled, 1u);
      EXPECT_EQ(rfs.counters().lost_blocks, 0u);
      rfs.stop_repair();
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(st_minority, Status::kNoQuorum) << "no split-brain acks";
  EXPECT_EQ(st_majority, Status::kOk);
  EXPECT_TRUE(mid_read_ok);
  EXPECT_TRUE(mid_matches_majority);
  EXPECT_EQ(dirty_mid, 1u) << "both cut-window writes key the same arm";
}

// --- resync() with divergent committed writes on both sides ---------------
// At heal time replica 0 holds the refused minority write and replicas 1-2
// hold the acked majority write: three committed copies, two contents.  The
// foreground majority vote must pick the acked content and rewrite the
// rogue replica — zero acked writes lost.

TEST(ServePartition, ResyncMajorityVoteHealsDivergentCommittedWrites) {
  const auto rep = replica_nodes_of_block0();
  sim::FaultPlan plan;
  plan.partition({rep[0], 4}, {rep[1], rep[2], 5}, 100 * sim::kMillisecond,
                 400 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Status minority = Status::kOk;
  Status majority = Status::kTimeout;
  std::uint32_t done = 0;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ReplicatedFs rfs(k, fs);
      const bridge::FileId f = rfs.open("diverge", 4);
      std::vector<std::uint8_t> seed, x, back(bridge::kBlockSize);
      fill_block(seed, 0, 1);
      EXPECT_EQ(rfs.write(f, 0, seed.data()), Status::kOk);
      k.create_process(4, [&] {
        k.delay(150 * sim::kMillisecond);
        std::vector<std::uint8_t> y;
        fill_block(y, 0, 2);
        minority = rfs.write(f, 0, y.data());  // rogue commit on replica 0
        ++done;
      });
      k.create_process(5, [&] {
        k.delay(200 * sim::kMillisecond);
        std::vector<std::uint8_t> xb;
        fill_block(xb, 0, 3);
        majority = rfs.write(f, 0, xb.data());  // acked on replicas 1-2
        ++done;
      });
      while (done < 2) k.delay(10 * sim::kMillisecond);
      while (m.now() < 450 * sim::kMillisecond)
        k.delay(10 * sim::kMillisecond);  // past the heal
      EXPECT_EQ(rfs.resync_block(f, 0), 1u) << "one rogue replica rewritten";
      EXPECT_EQ(rfs.resync_block(f, 0), 0u) << "second pass: converged";
      EXPECT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
      fill_block(x, 0, 3);
      EXPECT_EQ(back, x) << "majority (acked) content wins the vote";
      EXPECT_EQ(rfs.live_replicas(f, 0), 3u);
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(minority, Status::kNoQuorum);
  EXPECT_EQ(majority, Status::kOk);
}

// --- Instant Replay log equality across a cut-and-heal cycle --------------
// Three actors race monitored writes while driving serve traffic through a
// partition that cuts them off from two of the four servers: quorum
// refusals, dirty logging and the heal-time reconcile all ride the layer's
// seeded PRNG, so two runs must produce field-identical record logs.

struct PartitionReplayRun {
  replay::Log log;
  Time elapsed = 0;
  std::uint64_t ok = 0;
  std::uint64_t noquorum = 0;
  ServeCounters counters;
};

PartitionReplayRun run_partition_replay_workload() {
  // Seeding six 3-way blocks costs ~180 ms of simulated time, so the window
  // opens at 260 ms — just before the actors' first writes — and heals at
  // 700 ms, deep enough that every write round runs against the cut.
  sim::FaultPlan plan;
  plan.partition({0, 1}, {4, 5, 6}, 260 * sim::kMillisecond,
                 700 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  replay::Monitor mon(k, 3);
  // The monitored cell lives on node 7 — on neither side of the cut — so
  // actors reach it throughout the window.
  const std::uint32_t obj = mon.register_object(7, "cell");
  mon.set_mode(replay::Mode::kRecord);
  PartitionReplayRun out;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ServeConfig cfg;
      cfg.deadline = 5 * sim::kSecond;
      ReplicatedFs rfs(k, fs, nullptr, cfg);
      const bridge::FileId f = rfs.open("data", 16);
      std::vector<std::uint8_t> blk;
      for (std::uint32_t b = 0; b < 6; ++b) {
        fill_block(blk, b, 3);
        EXPECT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
      }
      rfs.start_repair(7);
      std::uint32_t live = 0;
      sim::Rng jitter(77);
      std::vector<Time> delays;
      for (std::uint32_t i = 0; i < 18; ++i)
        delays.push_back((20 + jitter.below(40)) * sim::kMillisecond);
      for (std::uint32_t a = 0; a < 3; ++a) {
        ++live;
        k.create_process(4 + a, [&, a] {
          std::vector<std::uint8_t> wblk, back(bridge::kBlockSize);
          for (std::uint32_t r = 0; r < 6; ++r) {
            k.delay(delays[a * 6 + r]);
            const std::uint32_t b = (a * 6 + r) % 6;
            Status st;
            if (r % 2 == 1) {
              fill_block(wblk, b, static_cast<std::uint8_t>(10 + r));
              st = rfs.write(f, b, wblk.data());
            } else {
              st = rfs.read(f, b, back.data());
            }
            if (st == Status::kOk) ++out.ok;
            if (st == Status::kNoQuorum) ++out.noquorum;
            mon.begin_write(a, obj);
            m.charge(300 * sim::kMicrosecond);
            mon.end_write(a, obj);
          }
          --live;
        });
      }
      while (live > 0) k.delay(20 * sim::kMillisecond);
      while (m.now() < 750 * sim::kMillisecond)
        k.delay(20 * sim::kMillisecond);  // the heal (and its reconcile) fire at 700 ms
      for (int i = 0; i < 200 && !rfs.repair_idle(); ++i)
        k.delay(20 * sim::kMillisecond);
      EXPECT_TRUE(rfs.repair_idle());
      out.counters = rfs.counters();
      rfs.stop_repair();
    }
    fs.shutdown();
  });
  out.elapsed = m.run();
  EXPECT_FALSE(m.deadlocked());
  out.log = mon.take_log();
  return out;
}

TEST(ServePartition, InstantReplayLogEqualityHoldsAcrossCutAndHeal) {
  const PartitionReplayRun a = run_partition_replay_workload();
  const PartitionReplayRun b = run_partition_replay_workload();
  // The workload genuinely exercised the partition paths...
  EXPECT_GT(a.counters.dirty_logged, 0u);
  EXPECT_GT(a.counters.reconciled, 0u);
  // ...and both runs agree on every observable.
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.noquorum, b.noquorum);
  EXPECT_EQ(a.counters.quorum_rejects, b.counters.quorum_rejects);
  EXPECT_EQ(a.counters.dirty_logged, b.counters.dirty_logged);
  EXPECT_EQ(a.counters.reconciled, b.counters.reconciled);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.timeouts, b.counters.timeouts);
  ASSERT_EQ(a.log.per_actor.size(), b.log.per_actor.size());
  for (std::size_t i = 0; i < a.log.per_actor.size(); ++i) {
    ASSERT_EQ(a.log.per_actor[i].size(), b.log.per_actor[i].size())
        << "actor " << i;
    for (std::size_t j = 0; j < a.log.per_actor[i].size(); ++j) {
      const replay::AccessEntry& x = a.log.per_actor[i][j];
      const replay::AccessEntry& y = b.log.per_actor[i][j];
      EXPECT_EQ(x.object, y.object) << i << "/" << j;
      EXPECT_EQ(x.version, y.version) << i << "/" << j;
      EXPECT_EQ(x.readers, y.readers) << i << "/" << j;
      EXPECT_EQ(x.is_write, y.is_write) << i << "/" << j;
      EXPECT_EQ(x.at, y.at) << i << "/" << j;
    }
  }
}

}  // namespace
}  // namespace bfly::serve
