// Partition tolerance for bfly::serve: majority-quorum writes under a
// split-brain cut (no minority-side acks), the repair that brings a block
// the cut left stale up to date once the worker can reach every replica
// (and only that block), resync()'s highest-version rule against a write
// landing mid-scan, and Instant Replay log equality across a full
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

// --- Quorum refusal, repair after the heal ----------------------------------
// The cut isolates replica 0 (plus a client on node 4) from replicas 1-2
// (plus a client on node 5 and the repair worker on node 6).  The fourth
// server and the orchestrator (node 7) sit on neither side and keep full
// connectivity throughout.

TEST(ServePartition, MinoritySideIsRefusedWhileMajorityAcksThenHealReconciles) {
  const auto rep = replica_nodes_of_block0();
  sim::FaultPlan plan;
  plan.partition({rep[0], 4}, {rep[1], rep[2], 5, 6},
                 200 * sim::kMillisecond, 600 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Status st_minority = Status::kOk;
  Status st_majority = Status::kTimeout;
  std::uint32_t clients_done = 0;
  std::uint64_t reconciled_mid = 1;
  bool mid_read_ok = false, mid_matches_majority = false;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ReplicatedFs rfs(k, fs);
      const bridge::FileId f = rfs.open("split", 4);
      std::vector<std::uint8_t> seed, majority_blk, back(bridge::kBlockSize);
      for (std::uint32_t b = 0; b < 4; ++b) {  // pre-cut: 3-way
        fill_block(seed, b, 1);
        EXPECT_EQ(rfs.write(f, b, seed.data()), Status::kOk);
      }
      EXPECT_LT(m.now(), 200 * sim::kMillisecond) << "seeded before the cut";
      rfs.start_repair(6);

      // Minority client: reaches only replica 0 of a 2-of-3 quorum, so the
      // write must be refused before any arm ships.
      k.create_process(4, [&] {
        k.delay(300 * sim::kMillisecond);
        std::vector<std::uint8_t> y;
        fill_block(y, 0, 2);
        st_minority = rfs.write(f, 0, y.data());
        ++clients_done;
      });
      // Majority client: replicas 1-2 commit, replica 0 is unreachable —
      // acked, leaving replica 0 stale and block 0 queued for repair.  The
      // worker cannot reach replica 0 either, so the block waits out the
      // cut.
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
      reconciled_mid = rfs.counters().reconciled;
      EXPECT_FALSE(rfs.repair_idle()) << "block 0 waits for the heal";
      const std::uint64_t ops_mid = fs.disk_ops();
      while (m.now() < 700 * sim::kMillisecond)
        k.delay(10 * sim::kMillisecond);  // the cut heals at 600 ms
      for (int i = 0; i < 200 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      EXPECT_TRUE(rfs.repair_idle());
      EXPECT_EQ(rfs.counters().reconciled, 1u)
          << "the repair rewrote exactly the replica the cut left stale";
      EXPECT_EQ(rfs.counters().repaired_blocks, 1u);
      EXPECT_EQ(fs.disk_ops() - ops_mid, 4u)
          << "the repair read block 0's three replicas and rewrote one; "
             "blocks 1-3 missed no write and were not read";
      EXPECT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
      EXPECT_EQ(back, majority_blk) << "the acked write is the survivor";
      EXPECT_EQ(rfs.live_replicas(f, 0), 3u);
      EXPECT_EQ(rfs.resync(f), 0u) << "the repair already converged it";
      EXPECT_EQ(rfs.counters().quorum_rejects, 1u);
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
  EXPECT_EQ(reconciled_mid, 0u) << "nothing converges before the heal";
}

// --- A cut that outlasts the repair worker's try budget --------------------
// The worker (node 6) sits with the majority for a 2 s cut, far longer
// than kRepairMaxTries backoffs.  A block held by the cut waits outside the
// try budget, so it ends repaired, not lost.

TEST(ServePartition, ACutOutlastingTheRepairTriesStillEndsRepaired) {
  const auto rep = replica_nodes_of_block0();
  sim::FaultPlan plan;
  plan.partition({rep[0]}, {rep[1], rep[2], 5, 6}, 100 * sim::kMillisecond,
                 2100 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Status majority = Status::kTimeout;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ReplicatedFs rfs(k, fs);
      const bridge::FileId f = rfs.open("long", 4);
      std::vector<std::uint8_t> seed, x, back(bridge::kBlockSize);
      fill_block(seed, 0, 1);
      fill_block(x, 0, 2);
      EXPECT_EQ(rfs.write(f, 0, seed.data()), Status::kOk);
      rfs.start_repair(6);
      bool done = false;
      k.create_process(5, [&] {
        k.delay(150 * sim::kMillisecond);
        majority = rfs.write(f, 0, x.data());  // replica 0 is cut off
        done = true;
      });
      while (!done) k.delay(10 * sim::kMillisecond);
      while (m.now() < 2000 * sim::kMillisecond) {
        EXPECT_FALSE(rfs.repair_idle()) << "held by the cut, not given up";
        k.delay(100 * sim::kMillisecond);
      }
      for (int i = 0; i < 200 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      EXPECT_TRUE(rfs.repair_idle());
      EXPECT_EQ(rfs.counters().lost_blocks, 0u);
      EXPECT_EQ(rfs.counters().repaired_blocks, 1u);
      EXPECT_EQ(rfs.counters().reconciled, 1u);
      EXPECT_EQ(rfs.resync(f), 0u) << "the repair already converged it";
      for (int i = 0; i < 3; ++i) {  // read-any: any replica will do
        ASSERT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
        EXPECT_EQ(back, x);
      }
      rfs.stop_repair();
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(majority, Status::kOk);
}

// --- resync() after a cut --------------------------------------------------
// The minority write is refused before it ships, so at heal time replica 0
// still holds the seed while replicas 1-2 hold the acked majority write.
// A foreground resync must keep the acked (highest) version and rewrite the
// stale replica — zero acked writes lost.

TEST(ServePartition, ResyncBringsTheReplicaACutLeftStaleUpToDate) {
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
        minority = rfs.write(f, 0, y.data());  // reaches replica 0 only
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
      EXPECT_EQ(rfs.resync_block(f, 0), 1u) << "one stale replica rewritten";
      EXPECT_EQ(rfs.resync_block(f, 0), 0u) << "second pass: converged";
      EXPECT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
      fill_block(x, 0, 3);
      EXPECT_EQ(back, x) << "the acked (highest) version wins";
      EXPECT_EQ(rfs.live_replicas(f, 0), 3u);
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(minority, Status::kNoQuorum);
  EXPECT_EQ(majority, Status::kOk);
}

// --- A write landing between resync_block()'s reads and its rewrites ------
// Replica 0 holds a refused write (v2) that committed there alone: the
// other arms were shed.  resync_block() reads v2, v1, v1 and decides to
// rewrite replicas 1-2 with v2.  While it reads replica 2, a client cut off
// from replica 0 writes v3 onto replicas 1-2 — a majority, so acked.  The
// rewrites then reach replicas 1-2 behind v3 and must not revert it: Bridge
// keeps the newer version.  After the heal, resync carries v3 to replica 0.

TEST(ServePartition, ResyncNeverRevertsAWriteThatLandsMidScan) {
  const auto rep = replica_nodes_of_block0();
  sim::FaultPlan plan;
  plan.partition({rep[0]}, {5}, 1 * sim::kMillisecond,
                 2 * sim::kSecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  Status overload = Status::kOk;
  Status mid_scan = Status::kTimeout;
  bool scanning = false;
  bool writer_done = false;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ServeConfig cfg;
      cfg.queue_limit = 3;
      ReplicatedFs rfs(k, fs, nullptr, cfg);
      const bridge::FileId f = rfs.open("midscan", 4);
      std::vector<std::uint8_t> v1, v2, v3, back(bridge::kBlockSize);
      fill_block(v1, 0, 1);
      fill_block(v2, 0, 2);
      fill_block(v3, 0, 3);
      ASSERT_EQ(rfs.write(f, 0, v1.data()), Status::kOk);

      // Busy replicas 1-2's servers past the queue limit, so v2's arms to
      // them are shed on every attempt while replica 0 commits.
      const bridge::FileId junk = fs.create("junk");
      const chrys::Oid dq = k.make_dual_queue();
      std::vector<std::vector<std::uint8_t>> bufs(8);
      for (std::uint32_t i = 0; i < 8; ++i) {
        bufs[i].resize(bridge::kBlockSize);
        fs.submit_read(junk, rfs.replica_server(f, 0, 1 + i % 2),
                       bufs[i].data(), dq);
      }
      overload = rfs.write(f, 0, v2.data());
      for (std::uint32_t i = 0; i < 8; ++i) fs.finish_request(k.dq_dequeue(dq));
      k.delete_object(dq);

      const std::uint32_t s2 = rfs.replica_server(f, 0, 2);
      k.create_process(5, [&] {
        while (!scanning || fs.queue_depth(s2) == 0)
          k.delay(1 * sim::kMillisecond);
        mid_scan = rfs.write(f, 0, v3.data());  // replica 0 is cut off
        writer_done = true;
      });
      scanning = true;
      // Replicas 1-2 were behind v2, but v3 lands on both while the scan
      // runs and outranks both rewrites: nothing was installed.
      EXPECT_EQ(rfs.resync_block(f, 0), 0u) << "outranked rewrites count";
      while (!writer_done) k.delay(10 * sim::kMillisecond);

      while (m.now() < 2100 * sim::kMillisecond)
        k.delay(10 * sim::kMillisecond);  // past the heal
      EXPECT_EQ(rfs.resync_block(f, 0), 1u) << "replica 0 catches up";
      EXPECT_EQ(rfs.resync_block(f, 0), 0u) << "second pass: converged";
      for (int i = 0; i < 3; ++i) {  // read-any: any replica will do
        ASSERT_EQ(rfs.read(f, 0, back.data()), Status::kOk);
        EXPECT_EQ(back, v3) << "the acked mid-scan write survived";
      }
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(overload, Status::kShed) << "one commit of three is no ack";
  EXPECT_EQ(mid_scan, Status::kOk);
}

// --- Instant Replay log equality across a cut-and-heal cycle --------------
// Three actors race monitored writes while driving serve traffic through a
// partition that cuts them off from two of the four servers: quorum
// refusals and the repairs of the blocks the cut left stale all ride the
// layer's seeded PRNG, so two runs must produce field-identical record
// logs.

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
        k.delay(20 * sim::kMillisecond);  // past the heal at 700 ms
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
  EXPECT_GT(a.counters.quorum_rejects, 0u);
  EXPECT_GT(a.counters.reconciled, 0u);
  // ...and both runs agree on every observable.
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.noquorum, b.noquorum);
  EXPECT_EQ(a.counters.quorum_rejects, b.counters.quorum_rejects);
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
