// Chaos-style exercises for bfly::serve: staggered silent kills under a
// live client population, determinism of the whole chaotic run, Instant
// Replay log equality with serve traffic racing (bare, and with every
// probe attached at once), and kill-during-checkpoint restart with
// under-replicated blocks converging back to full strength.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "rescue/checkpoint.hpp"
#include "scope/scope.hpp"
#include "serve/serve.hpp"
#ifdef BFLY_HAVE_ANALYZE
#include "analyze/analyze.hpp"
#endif

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

// --- The chaos scenario ----------------------------------------------------
// 8 Bridge servers on nodes 0-7 of a 16-node machine, 4 client workers on
// nodes 9-12, a failure detector and a repair worker on client-side nodes.
// Nodes 1 and 3 go *silently* catatonic mid-run.  Each worker owns 4 blocks
// and grinds read/write cycles against them until its op budget is spent.

struct ChaosResult {
  Time elapsed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  Time worst = 0;  // worst single-op latency
  ServeCounters counters;
  std::uint64_t content_hash = 0;
  std::uint64_t suspects = 0;
  bool deadlocked = true;
  bool converged = false;  // every block back to 3 live replicas
};

ChaosResult run_chaos() {
  sim::FaultPlan plan;
  plan.kill_silent(1, 1 * sim::kSecond);
  plan.kill_silent(3, 2 * sim::kSecond);
  Machine m(butterfly1(16), plan);
  chrys::Kernel k(m);
  ChaosResult out;
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint32_t kBlocksPer = 4;
  constexpr std::uint32_t kOpsPer = 30;
  std::vector<std::uint8_t> last_salt(kWorkers * kBlocksPer, 0);
  std::uint32_t done = 0;

  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, 8);
    {
      rescue::RescueConfig rc;
      rc.monitor_node = 14;  // keep the watchdog off the serving nodes
      rescue::Membership mem(k, rc);
      ServeConfig cfg;
      cfg.hedge_floor = 60 * sim::kMillisecond;
      cfg.min_hedge_samples = 1u << 20;  // pin the hedge trigger to the floor
      ReplicatedFs rfs(k, fs, &mem, cfg);
      const bridge::FileId f = rfs.open("chaos", 32);
      std::vector<std::uint8_t> blk;
      for (std::uint32_t b = 0; b < kWorkers * kBlocksPer; ++b) {
        fill_block(blk, b, 0);
        if (rfs.write(f, b, blk.data()) == Status::kOk)
          ++out.ok;
        else
          ++out.failed;
      }
      mem.start();
      rfs.start_repair(13);

      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        k.create_process(9 + w, [&, w] {
          std::vector<std::uint8_t> wblk, wback(bridge::kBlockSize);
          sim::Rng pace(100 + w);
          for (std::uint32_t op = 0; op < kOpsPer; ++op) {
            const std::uint32_t b = w * kBlocksPer + op % kBlocksPer;
            k.delay((1 + pace.below(20)) * sim::kMillisecond);
            const Time t0 = m.now();
            Status st;
            if (op % 3 == 2) {
              const auto salt = static_cast<std::uint8_t>(1 + op % 200);
              fill_block(wblk, b, salt);
              st = rfs.write(f, b, wblk.data());
              if (st == Status::kOk) last_salt[b] = salt;
            } else {
              st = rfs.read(f, b, wback.data());
            }
            out.worst = std::max(out.worst, m.now() - t0);
            if (st == Status::kOk)
              ++out.ok;
            else
              ++out.failed;
          }
          ++done;
        });
      }
      while (done < kWorkers) k.delay(50 * sim::kMillisecond);
      // Let the repair queue drain, then verify convergence and content.
      for (int i = 0; i < 500 && !rfs.repair_idle(); ++i)
        k.delay(20 * sim::kMillisecond);
      out.converged = rfs.repair_idle();
      std::vector<std::uint8_t> back(bridge::kBlockSize);
      for (std::uint32_t b = 0; b < kWorkers * kBlocksPer; ++b) {
        if (rfs.live_replicas(f, b) != 3) out.converged = false;
        if (rfs.read(f, b, back.data()) != Status::kOk) {
          out.converged = false;
          continue;
        }
        fill_block(blk, b, last_salt[b]);
        if (back != blk) out.converged = false;
        for (std::size_t i = 0; i < back.size(); ++i)
          out.content_hash = out.content_hash * 1099511628211ULL + back[i];
      }
      out.counters = rfs.counters();
      mem.stop();
      rfs.stop_repair();
      for (int i = 0; i < 100 && !rfs.repair_idle(); ++i)
        k.delay(20 * sim::kMillisecond);
    }
    fs.shutdown();
  });
  out.elapsed = m.run();
  out.deadlocked = m.deadlocked();
  out.suspects = m.stats().suspects_declared;
  return out;
}

TEST(ServeChaos, ServiceDegradesGracefullyUnderStaggeredSilentKills) {
  const ChaosResult r = run_chaos();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(r.suspects, 2u) << "both silent kills must be detected";
  const std::uint64_t total = r.ok + r.failed;
  EXPECT_EQ(total, 4u * 30u + 16u);
  // Goodput: the overwhelming majority of ops succeed through kills,
  // suspicion windows, and re-replication.
  EXPECT_GE(r.ok * 10, total * 8) << r.failed << " of " << total << " failed";
  // No request outlives its deadline budget (plus the charges already in
  // flight when it expired).
  EXPECT_LE(r.worst, ServeConfig{}.deadline + 100 * sim::kMillisecond);
  EXPECT_TRUE(r.converged) << "every block back to 3 live replicas with the "
                              "last committed content";
  EXPECT_GT(r.counters.rereplications, 0u);
  EXPECT_EQ(r.counters.lost_blocks, 0u);
}

TEST(ServeChaos, TheWholeChaoticRunIsDeterministic) {
  // Retries, hedges, sheds, kills, suspicion timing, repair placement —
  // all of it is a pure function of (config, plan, program).
  const ChaosResult a = run_chaos();
  const ChaosResult b = run_chaos();
  ASSERT_FALSE(a.deadlocked);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.hedges, b.counters.hedges);
  EXPECT_EQ(a.counters.hedge_wins, b.counters.hedge_wins);
  EXPECT_EQ(a.counters.sheds, b.counters.sheds);
  EXPECT_EQ(a.counters.timeouts, b.counters.timeouts);
  EXPECT_EQ(a.counters.rereplications, b.counters.rereplications);
}

// --- Instant Replay with serve enabled ------------------------------------

struct ReplayRun {
  replay::Log log;
  Time elapsed = 0;
  ServeCounters counters;
  std::uint64_t hook_charges = 0;
};

// A gray-slow server: hedges fire against it.
sim::FaultPlan slow_server_plan() {
  sim::FaultPlan plan;
  plan.slow(2, 200 * sim::kMillisecond, 100 * sim::kSecond, 30.0);
  return plan;
}

// Three actors race monitored writes to a shared object while each also
// drives serve traffic.  A plan that kills nodes also gets a failure
// detector, so a silently dead server is excised before shutdown.  With
// `observed`, a scope::Tracer, an analyze::Analyzer (when built) and a
// moviola::Detector watch the whole run together.
ReplayRun run_replay_workload(const sim::FaultPlan& plan,
                              bool observed = false) {
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  std::unique_ptr<scope::Tracer> tracer;
  std::unique_ptr<moviola::Detector> detector;
#ifdef BFLY_HAVE_ANALYZE
  std::unique_ptr<analyze::Analyzer> analyzer;
#endif
  if (observed) {
    tracer = std::make_unique<scope::Tracer>(m);
    detector = std::make_unique<moviola::Detector>(m, &k);
#ifdef BFLY_HAVE_ANALYZE
    analyzer = std::make_unique<analyze::Analyzer>(m);
#endif
  }
  replay::Monitor mon(k, 3);
  const std::uint32_t obj = mon.register_object(0, "cell");
  mon.set_mode(replay::Mode::kRecord);
  ReplayRun out;
  k.create_process(7, [&] {
    bridge::BridgeFs fs(k, 4);
    {
      ServeConfig cfg;
      cfg.hedge_floor = 50 * sim::kMillisecond;
      cfg.min_hedge_samples = 1u << 20;
      cfg.deadline = 5 * sim::kSecond;
      std::unique_ptr<rescue::Membership> mem;
      if (!plan.node_kills.empty()) {
        rescue::RescueConfig rc;
        rc.monitor_node = 7;  // keep the watchdog off the serving nodes
        mem = std::make_unique<rescue::Membership>(k, rc);
        mem->start();
      }
      ReplicatedFs rfs(k, fs, mem.get(), cfg);
      const bridge::FileId f = rfs.open("data", 16);
      std::vector<std::uint8_t> blk;
      for (std::uint32_t b = 0; b < 6; ++b) {
        fill_block(blk, b, 3);
        EXPECT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
      }
      std::uint32_t live = 0;
      sim::Rng jitter(77);
      std::vector<Time> delays;
      for (std::uint32_t i = 0; i < 12; ++i)
        delays.push_back((1 + jitter.below(30)) * sim::kMillisecond);
      for (std::uint32_t a = 0; a < 3; ++a) {
        ++live;
        k.create_process(4 + a, [&, a] {
          std::vector<std::uint8_t> back(bridge::kBlockSize);
          for (std::uint32_t r = 0; r < 4; ++r) {
            k.delay(delays[a * 4 + r]);
            EXPECT_EQ(rfs.read(f, (a * 4 + r) % 6, back.data()), Status::kOk);
            mon.begin_write(a, obj);
            m.charge(300 * sim::kMicrosecond);
            mon.end_write(a, obj);
          }
          --live;
        });
      }
      while (live > 0) k.delay(20 * sim::kMillisecond);
      out.counters = rfs.counters();
      if (mem) mem->stop();
    }
    fs.shutdown();
  });
  out.elapsed = m.run();
  EXPECT_FALSE(m.deadlocked());
  out.log = mon.take_log();
  out.hook_charges = m.hook_charges();
  return out;
}

void expect_same_log(const replay::Log& a, const replay::Log& b) {
  ASSERT_EQ(a.per_actor.size(), b.per_actor.size());
  for (std::size_t i = 0; i < a.per_actor.size(); ++i) {
    ASSERT_EQ(a.per_actor[i].size(), b.per_actor[i].size()) << "actor " << i;
    for (std::size_t j = 0; j < a.per_actor[i].size(); ++j) {
      const replay::AccessEntry& x = a.per_actor[i][j];
      const replay::AccessEntry& y = b.per_actor[i][j];
      EXPECT_EQ(x.object, y.object) << i << "/" << j;
      EXPECT_EQ(x.version, y.version) << i << "/" << j;
      EXPECT_EQ(x.readers, y.readers) << i << "/" << j;
      EXPECT_EQ(x.is_write, y.is_write) << i << "/" << j;
      EXPECT_EQ(x.at, y.at) << i << "/" << j;
    }
  }
}

TEST(ServeChaos, InstantReplayLogEqualityHoldsWithServeEnabled) {
  // Hedges against a gray-slow server are the most schedule-sensitive path
  // in the layer.  Two runs must produce field-identical record logs.
  const ReplayRun a = run_replay_workload(slow_server_plan());
  const ReplayRun b = run_replay_workload(slow_server_plan());
  EXPECT_GT(a.counters.hedges, 0u);
  EXPECT_GT(b.counters.hedges, 0u);
  EXPECT_EQ(a.elapsed, b.elapsed);
  expect_same_log(a.log, b.log);
}

TEST(ServeChaos, AllProbesTogetherLeaveASilentKillRunUnchanged) {
  // Tracer, Analyzer and Detector share one run's probe list while a server
  // node dies silently mid-run: the log and every result must match the
  // bare run, and no probe hook may charge simulated time.
  sim::FaultPlan plan;
  plan.kill_silent(2, 40 * sim::kMillisecond);
  const ReplayRun bare = run_replay_workload(plan);
  const ReplayRun observed = run_replay_workload(plan, /*observed=*/true);
  EXPECT_GT(bare.counters.failed_replicas, 0u) << "the kill must hit traffic";
  ASSERT_EQ(bare.log.per_actor.size(), 3u);
  EXPECT_EQ(bare.log.per_actor[0].size(), 4u);
  EXPECT_EQ(bare.elapsed, observed.elapsed);
  EXPECT_EQ(bare.counters.json(), observed.counters.json());
  EXPECT_EQ(bare.counters.reads, observed.counters.reads);
  EXPECT_EQ(bare.counters.writes, observed.counters.writes);
  EXPECT_EQ(bare.counters.failed_replicas, observed.counters.failed_replicas);
  expect_same_log(bare.log, observed.log);
  EXPECT_EQ(observed.hook_charges, 0u);
}

// --- Kill during checkpoint, restart with under-replicated blocks ---------

TEST(ServeChaos, KillDuringCheckpointRestartsAndResyncsToFullStrength) {
  // 16 KB of protected state = 4 checkpoint data blocks, so the file's
  // stripes span every server — including the one that dies.
  constexpr std::uint32_t kWords = 4096;
  bridge::StableStore store;
  // Incarnation 1: 4 servers, replicated data file, one healthy checkpoint;
  // then server 2's node dies loudly — mid-run, with the second checkpoint
  // torn by the death and half the rewrite train landing on 2 live replicas
  // only.
  {
    sim::FaultPlan plan;
    plan.kill(2, 1500 * sim::kMillisecond);
    Machine m(butterfly1(8), plan);
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      bridge::BridgeFs fs(k, 4, bridge::DiskParams{}, &store);
      {
        ServeConfig cfg;
        cfg.hedge_floor = 500 * sim::kMillisecond;
        ReplicatedFs rfs(k, fs, nullptr, cfg);
        rescue::Checkpointer cp(k, fs, rescue::CheckpointConfig{1, "ckpt"});
        const sim::PhysAddr base = m.alloc(5, kWords * 4);
        cp.protect(base, kWords * 4);
        for (std::uint32_t w = 0; w < kWords; ++w)
          m.poke<std::uint32_t>(base.plus(w * 4), 0xC0DE0000u + w);
        const bridge::FileId f = rfs.open("data", 16);
        std::vector<std::uint8_t> blk;
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b, 0);
          ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        cp.take_checkpoint();  // healthy: lands fully in ckpt.a
        while (k.node_alive(2)) k.delay(50 * sim::kMillisecond);
        // Rewrites while a server is down: each block whose stripe set
        // includes server 2 commits on 2 replicas, leaving a stale third
        // copy on the dead node's platters.
        for (std::uint32_t b = 0; b < 8; ++b) {
          fill_block(blk, b, 9);
          ASSERT_EQ(rfs.write(f, b, blk.data()), Status::kOk);
        }
        EXPECT_GT(rfs.counters().failed_replicas, 0u);
        // The checkpoint the death interrupts: its stripes on server 2
        // throw, tearing the buffer — exactly what restore() must survive.
        const int err = k.catch_block([&] { cp.take_checkpoint(); });
        EXPECT_EQ(err, chrys::kThrowNodeDead);
      }
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
  ASSERT_FALSE(store.empty());

  // Incarnation 2: the machine reboots with every node back (the platters
  // survived; the node was repaired).  The checkpoint falls back to the
  // last valid buffer, and resync() votes the stale replicas back into
  // agreement — converging every block to 3 identical live copies.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      bridge::BridgeFs fs(k, 4, bridge::DiskParams{}, &store);
      {
        ServeConfig cfg;
        cfg.hedge_floor = 500 * sim::kMillisecond;
        ReplicatedFs rfs(k, fs, nullptr, cfg);
        rescue::Checkpointer cp(k, fs, rescue::CheckpointConfig{1, "ckpt"});
        const sim::PhysAddr base = m.alloc(5, kWords * 4);
        cp.protect(base, kWords * 4);
        ASSERT_TRUE(cp.restore()) << "torn buffer must fall back, not fail";
        for (std::uint32_t w = 0; w < kWords; ++w)
          ASSERT_EQ(m.peek<std::uint32_t>(base.plus(w * 4)), 0xC0DE0000u + w)
              << "word " << w;
        const bridge::FileId f = rfs.open("data", 16);
        EXPECT_EQ(rfs.blocks(f), 8u);
        const std::uint32_t rewrites = rfs.resync(f);
        EXPECT_GT(rewrites, 0u) << "stale third copies must be repaired";
        EXPECT_EQ(rfs.resync(f), 0u) << "second pass: already converged";
        std::vector<std::uint8_t> blk, back(bridge::kBlockSize);
        for (std::uint32_t b = 0; b < 8; ++b) {
          EXPECT_EQ(rfs.live_replicas(f, b), 3u);
          ASSERT_EQ(rfs.read(f, b, back.data()), Status::kOk);
          fill_block(blk, b, 9);
          EXPECT_EQ(back, blk) << "block " << b;
        }
      }
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
}

}  // namespace
}  // namespace bfly::serve
