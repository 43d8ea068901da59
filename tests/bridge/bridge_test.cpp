#include "bridge/bridge.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace bfly::bridge {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t index) {
  blk.assign(kBlockSize, 0);
  for (std::size_t i = 0; i < kBlockSize; ++i)
    blk[i] = static_cast<std::uint8_t>((index * 31 + i) % 251);
}

void with_fs(std::uint32_t machine_nodes, std::uint32_t servers,
             std::function<void(chrys::Kernel&, BridgeFs&)> body) {
  Machine m(butterfly1(machine_nodes));
  chrys::Kernel k(m);
  k.create_process(machine_nodes - 1, [&] {
    BridgeFs fs(k, servers);
    body(k, fs);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Bridge, BlockReadWriteRoundTrip) {
  with_fs(8, 4, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    for (std::uint32_t b = 0; b < 10; ++b) {
      fill_block(blk, b);
      fs.write_block(f, b, blk.data());
    }
    EXPECT_EQ(fs.blocks(f), 10u);
    for (std::uint32_t b = 0; b < 10; ++b) {
      fs.read_block(f, b, back.data());
      fill_block(blk, b);
      EXPECT_EQ(back, blk) << "block " << b;
    }
  });
}

TEST(Bridge, ToolCopyReplicatesInterleavedFile) {
  with_fs(8, 4, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId src = fs.create("src");
    const FileId dst = fs.create("dst");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    for (std::uint32_t b = 0; b < 13; ++b) {
      fill_block(blk, b);
      fs.write_block(src, b, blk.data());
    }
    fs.tool_copy(src, dst);
    EXPECT_EQ(fs.blocks(dst), 13u);
    EXPECT_EQ(fs.tool_compare(src, dst), 0u);
    for (std::uint32_t b = 0; b < 13; ++b) {
      fs.read_block(dst, b, back.data());
      fill_block(blk, b);
      EXPECT_EQ(back, blk);
    }
  });
}

TEST(Bridge, ToolSearchCountsBytes) {
  with_fs(8, 3, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId f = fs.create("hay");
    std::vector<std::uint8_t> blk(kBlockSize, 0);
    blk[5] = 0xaa;
    blk[100] = 0xaa;
    fs.write_block(f, 0, blk.data());
    blk.assign(kBlockSize, 0);
    blk[9] = 0xaa;
    fs.write_block(f, 1, blk.data());
    blk.assign(kBlockSize, 0);
    fs.write_block(f, 2, blk.data());
    EXPECT_EQ(fs.tool_search(f, 0xaa), 3u);
    EXPECT_EQ(fs.tool_search(f, 0xbb), 0u);
  });
}

TEST(Bridge, ToolCompareSpotsDifferences) {
  with_fs(8, 4, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId a = fs.create("a");
    const FileId b = fs.create("b");
    std::vector<std::uint8_t> blk;
    for (std::uint32_t i = 0; i < 8; ++i) {
      fill_block(blk, i);
      fs.write_block(a, i, blk.data());
      if (i == 5) blk[17] ^= 1;  // corrupt one block of b
      fs.write_block(b, i, blk.data());
    }
    EXPECT_EQ(fs.tool_compare(a, b), 1u);
  });
}

TEST(Bridge, ToolSortProducesSortedRecords) {
  with_fs(8, 4, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId src = fs.create("unsorted");
    const FileId dst = fs.create("sorted");
    sim::Rng rng(99);
    constexpr std::uint32_t kBlocks = 8;
    constexpr std::uint32_t kRec = kBlockSize / 4;
    std::vector<std::uint32_t> all;
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      std::vector<std::uint32_t> recs(kRec);
      for (auto& r : recs) r = static_cast<std::uint32_t>(rng.next());
      all.insert(all.end(), recs.begin(), recs.end());
      fs.write_block(src, b, recs.data());
    }
    fs.tool_sort(src, dst);
    std::sort(all.begin(), all.end());
    std::vector<std::uint32_t> got;
    std::vector<std::uint8_t> buf(kBlockSize);
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      fs.read_block(dst, b, buf.data());
      const auto* p = reinterpret_cast<const std::uint32_t*>(buf.data());
      got.insert(got.end(), p, p + kRec);
    }
    EXPECT_EQ(got, all);
  });
}

TEST(Bridge, MoreDisksScaleToolThroughput) {
  // The headline claim: near-linear speedup in the number of disks for
  // tool-interface operations.
  auto search_time = [](std::uint32_t servers) {
    Machine m(butterfly1(64));
    chrys::Kernel k(m);
    Time t = 0;
    k.create_process(63, [&] {
      BridgeFs fs(k, servers);
      const FileId f = fs.create("big");
      std::vector<std::uint8_t> blk(kBlockSize, 7);
      for (std::uint32_t b = 0; b < 240; ++b) fs.write_block(f, b, blk.data());
      const Time t0 = m.now();
      (void)fs.tool_search(f, 9);
      t = m.now() - t0;
      fs.shutdown();
    });
    m.run();
    return t;
  };
  const Time d1 = search_time(1);
  const Time d8 = search_time(8);
  const double speedup = static_cast<double>(d1) / static_cast<double>(d8);
  EXPECT_GT(speedup, 6.0) << "8 disks should search ~8x faster than 1";
  EXPECT_LE(speedup, 8.5);
}

TEST(Bridge, NaiveInterfaceDoesNotScale) {
  // A synchronous client reading one block at a time gains nothing from
  // striping: "faster storage devices cannot solve the I/O bottleneck
  // problem ... if data passes through a file system on a single
  // processor" — exactly the motivation for the tool interface.
  auto scan_time = [](std::uint32_t servers) {
    Machine m(butterfly1(32));
    chrys::Kernel k(m);
    Time t = 0;
    k.create_process(31, [&] {
      BridgeFs fs(k, servers);
      const FileId f = fs.create("file");
      std::vector<std::uint8_t> blk(kBlockSize, 1);
      for (std::uint32_t b = 0; b < 24; ++b) fs.write_block(f, b, blk.data());
      std::vector<std::uint8_t> buf(kBlockSize);
      const Time t0 = m.now();
      for (std::uint32_t b = 0; b < 24; ++b) fs.read_block(f, b, buf.data());
      t = m.now() - t0;
      fs.shutdown();
    });
    m.run();
    return t;
  };
  const Time one = scan_time(1);
  const Time four = scan_time(4);
  EXPECT_LT(four, 2 * one);
  EXPECT_GT(four * 2, one) << "no parallel win through the serial client";
}

TEST(BridgeFaults, DeadServerFailsItsStripeOthersKeepServing) {
  // Four servers on nodes 0-3; node 2's server dies mid-run.  Blocks whose
  // stripe lands on server 2 raise kThrowNodeDead; the other stripes keep
  // working, and shutdown still completes.
  sim::FaultPlan plan;
  plan.kill(2, 500 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  std::uint32_t dead_stripe_errors = 0;
  std::uint32_t good_reads = 0;
  k.create_process(7, [&] {
    BridgeFs fs(k, 4);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    // All 12 writes land well before the kill at 500 ms.
    for (std::uint32_t b = 0; b < 12; ++b) {
      fill_block(blk, b);
      fs.write_block(f, b, blk.data());
    }
    // Wait out the kill, then read everything back: the dead server's
    // stripe fails, the rest is intact.
    while (m.node_alive(2)) k.delay(50 * sim::kMillisecond);
    for (std::uint32_t b = 0; b < 12; ++b) {
      const int err = k.catch_block([&] {
        fs.read_block(f, b, back.data());
        fill_block(blk, b);
        if (back == blk) ++good_reads;
      });
      if (err == chrys::kThrowNodeDead) ++dead_stripe_errors;
    }
    EXPECT_EQ(fs.servers_lost(), 1u);
    EXPECT_EQ(fs.servers_alive(), 3u);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  // Blocks 2, 6, 10 live on the dead server.
  EXPECT_EQ(dead_stripe_errors, 3u);
  EXPECT_EQ(good_reads, 9u);
}

TEST(BridgeFaults, ServerOnANodeDeadAtConstructionIsLostFromTheStart) {
  // Node 2 dies before the file system is built.  Its server cannot start,
  // so it is lost from the start: the constructor returns, stripe 2 throws
  // kThrowNodeDead, and the servers already started serve the rest.
  sim::FaultPlan plan;
  plan.kill(2, 1 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  bool built = false;
  std::uint32_t dead_stripe_errors = 0;
  std::uint32_t good_reads = 0;
  k.create_process(7, [&] {
    k.delay(2 * sim::kMillisecond);
    BridgeFs fs(k, 4);
    built = true;
    EXPECT_EQ(fs.servers_lost(), 1u);
    EXPECT_EQ(fs.servers_alive(), 3u);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    for (std::uint32_t b = 0; b < 8; ++b) {
      const int err = k.catch_block([&] {
        fill_block(blk, b);
        fs.write_block(f, b, blk.data());
        fs.read_block(f, b, back.data());
        if (back == blk) ++good_reads;
      });
      if (err == chrys::kThrowNodeDead) ++dead_stripe_errors;
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_TRUE(built) << "a dead server node must not fail the constructor";
  // Blocks 2 and 6 live on the server that never started.
  EXPECT_EQ(dead_stripe_errors, 2u);
  EXPECT_EQ(good_reads, 6u);
}

TEST(BridgeFaults, ToolOpsRunDegradedOnSurvivors) {
  sim::FaultPlan plan;
  plan.kill(1, 300 * sim::kMillisecond);
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  k.create_process(7, [&] {
    BridgeFs fs(k, 4);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 0xAB);
    // 8 blocks at ~26 ms each: done well before the kill at 300 ms.
    for (std::uint32_t b = 0; b < 8; ++b) fs.write_block(f, b, blk.data());
    // Wait out the kill, then search: it runs on the 3 survivors only.
    while (m.node_alive(1)) k.delay(50 * sim::kMillisecond);
    const std::uint64_t hits = fs.tool_search(f, 0xAB);
    // 6 of 8 blocks are on surviving servers (blocks 1 and 5 are lost).
    EXPECT_EQ(hits, 6u * kBlockSize);
    EXPECT_EQ(fs.servers_lost(), 1u);
    EXPECT_EQ(fs.servers_alive(), 3u);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(BridgeFaults, RequestInFlightOnDyingServerGetsAFailureReply) {
  // The client is blocked waiting on a reply from the very server that
  // dies: it must receive a failure reply promptly, not hang.
  sim::FaultPlan plan;
  plan.kill(0, 100 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  bool threw = false;
  k.create_process(3, [&] {
    BridgeFs fs(k, 2);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 1);
    // Server 0 (node 0) owns even blocks; a long write train keeps it busy
    // across its death time.
    for (std::uint32_t b = 0; b < 40 && !threw; b += 2) {
      const int err = k.catch_block([&] { fs.write_block(f, b, blk.data()); });
      if (err == chrys::kThrowNodeDead) threw = true;
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_TRUE(threw);
}

TEST(BridgeFaults, DiskKilledMidRequestFailsInFlightAndSubsequentOps) {
  // Node 0 homes a disk and dies mid-request: the in-flight request gets a
  // failure reply, and every later block op on that stripe raises promptly
  // — in both directions — instead of hanging on a queue nobody serves.
  sim::FaultPlan plan;
  plan.kill(0, 100 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  k.create_process(3, [&] {
    BridgeFs fs(k, 2);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 1), back(kBlockSize);
    bool threw = false;
    // Server 0 owns even blocks; the write train is mid-request at 100 ms.
    for (std::uint32_t b = 0; b < 40 && !threw; b += 2) {
      const int err = k.catch_block([&] { fs.write_block(f, b, blk.data()); });
      if (err == chrys::kThrowNodeDead) threw = true;
    }
    EXPECT_TRUE(threw);
    // Subsequent ops on the dead stripe refuse fast (no disk service).
    const sim::Time before = m.now();
    EXPECT_EQ(k.catch_block([&] { fs.write_block(f, 0, blk.data()); }),
              chrys::kThrowNodeDead);
    EXPECT_EQ(k.catch_block([&] { fs.read_block(f, 0, back.data()); }),
              chrys::kThrowNodeDead);
    EXPECT_LT(m.now() - before, 10 * sim::kMillisecond);
    // The surviving server's stripe still works.
    fs.write_block(f, 1, blk.data());
    fs.read_block(f, 1, back.data());
    EXPECT_EQ(back, blk);
    EXPECT_EQ(fs.servers_lost(), 1u);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(BridgeFaults, SilentlyDeadServerIsExcisedByAFailureDetector) {
  // A silent kill fires no crash broadcast: the client blocked on the dead
  // server's reply stays blocked until a failure detector broadcasts its
  // verdict, and Bridge's crash observer fail-replies the in-flight request.
  sim::FaultPlan plan;
  plan.kill_silent(0, 100 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  bool threw = false;
  k.create_process(3, [&] {
    BridgeFs fs(k, 2);
    // A stand-in detector on another node: notices the death (ground truth
    // here; rescue::Membership in real use) and reports it a while later.
    k.create_process(2, [&] {
      while (m.node_alive(0)) k.delay(20 * sim::kMillisecond);
      k.delay(50 * sim::kMillisecond);
      m.broadcast_crash(0);
    });
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 2);
    for (std::uint32_t b = 0; b < 40 && !threw; b += 2) {
      const int err = k.catch_block([&] { fs.write_block(f, b, blk.data()); });
      if (err == chrys::kThrowNodeDead) threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(fs.servers_lost(), 1u);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_TRUE(threw);
}

TEST(Bridge, StableStoreSurvivesAMachineReboot) {
  StableStore store;
  // First incarnation writes a file; the store is flushed on destruction.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      BridgeFs fs(k, 4, DiskParams{}, &store);
      const FileId f = fs.create("data");
      std::vector<std::uint8_t> blk;
      for (std::uint32_t b = 0; b < 10; ++b) {
        fill_block(blk, b);
        fs.write_block(f, b, blk.data());
      }
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
  ASSERT_FALSE(store.empty());
  // A fresh Machine — a reboot — sees the same bytes on the platters.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      BridgeFs fs(k, 4, DiskParams{}, &store);
      FileId f = 0;
      ASSERT_TRUE(fs.lookup("data", &f));
      EXPECT_EQ(fs.blocks(f), 10u);
      std::vector<std::uint8_t> blk, back(kBlockSize);
      for (std::uint32_t b = 0; b < 10; ++b) {
        fs.read_block(f, b, back.data());
        fill_block(blk, b);
        EXPECT_EQ(back, blk) << "block " << b;
      }
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
  // A different server count would scramble the interleaving: refused.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    bool threw = false;
    k.create_process(7, [&] {
      try {
        BridgeFs fs(k, 2, DiskParams{}, &store);
        fs.shutdown();
      } catch (const sim::SimError&) {
        threw = true;
      }
    });
    m.run();
    EXPECT_TRUE(threw);
  }
}

TEST(Bridge, VersionsSurviveARebootAndOlderWritesChangeNothing) {
  StableStore store;
  std::uint64_t v1 = 0, v2 = 0;
  std::vector<std::uint8_t> a, b, back(kBlockSize);
  fill_block(a, 1);
  fill_block(b, 2);
  // First incarnation: two stamped writes; an older stamp is acknowledged
  // and leaves the newer block as it was.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      BridgeFs fs(k, 4, DiskParams{}, &store);
      const FileId f = fs.create("data");
      v1 = fs.next_version();
      v2 = fs.next_version();
      EXPECT_LT(v1, v2);
      EXPECT_TRUE(fs.write_block_for(f, 0, a.data(), 0, v2));
      EXPECT_TRUE(fs.write_block_for(f, 1, a.data(), 0, v1));
      EXPECT_TRUE(fs.write_block_for(f, 0, b.data(), 0, v1));
      std::uint64_t ver = 0;
      EXPECT_TRUE(fs.read_block_for(f, 0, back.data(), 0, &ver));
      EXPECT_EQ(back, a) << "the older write left the block unchanged";
      EXPECT_EQ(ver, v2);
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
  // Reboot: the versions come back with the bytes, and the next stamp
  // outranks every loaded one.
  {
    Machine m(butterfly1(8));
    chrys::Kernel k(m);
    k.create_process(7, [&] {
      BridgeFs fs(k, 4, DiskParams{}, &store);
      FileId f = 0;
      ASSERT_TRUE(fs.lookup("data", &f));
      std::uint64_t ver = 0;
      EXPECT_TRUE(fs.read_block_for(f, 0, back.data(), 0, &ver));
      EXPECT_EQ(back, a);
      EXPECT_EQ(ver, v2);
      EXPECT_TRUE(fs.read_block_for(f, 1, back.data(), 0, &ver));
      EXPECT_EQ(ver, v1);
      const std::uint64_t v3 = fs.next_version();
      EXPECT_GT(v3, v2);
      EXPECT_TRUE(fs.write_block_for(f, 0, b.data(), 0, v3));
      EXPECT_TRUE(fs.read_block_for(f, 0, back.data(), 0, &ver));
      EXPECT_EQ(back, b) << "the post-reboot write installs";
      EXPECT_EQ(ver, v3);
      // An older stamp still changes nothing; version 0 always installs.
      EXPECT_TRUE(fs.write_block_for(f, 0, a.data(), 0, v2));
      EXPECT_TRUE(fs.read_block_for(f, 0, back.data(), 0, &ver));
      EXPECT_EQ(back, b);
      fs.write_block(f, 0, a.data());
      EXPECT_TRUE(fs.read_block_for(f, 0, back.data(), 0, &ver));
      EXPECT_EQ(back, a);
      EXPECT_EQ(ver, 0u);
      fs.shutdown();
    });
    m.run();
    ASSERT_FALSE(m.deadlocked());
  }
}

TEST(BridgeDeadline, BudgetedCallsRoundTripOnAHealthyFs) {
  with_fs(8, 4, [](chrys::Kernel&, BridgeFs& fs) {
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    for (std::uint32_t b = 0; b < 8; ++b) {
      fill_block(blk, b);
      ASSERT_TRUE(fs.write_block_for(f, b, blk.data(), sim::kSecond));
    }
    for (std::uint32_t b = 0; b < 8; ++b) {
      ASSERT_TRUE(fs.read_block_for(f, b, back.data(), sim::kSecond));
      fill_block(blk, b);
      EXPECT_EQ(back, blk) << "block " << b;
    }
  });
}

TEST(BridgeDeadline, ReadTimesOutOnASilentlyDeadServerInsteadOfHanging) {
  // Silent kill: no crash broadcast, nobody fail-replies the queue.  Before
  // the deadline interface this read could only hang until a failure
  // detector spoke up; now it abandons the request and returns false within
  // its budget.
  sim::FaultPlan plan;
  plan.kill_silent(0, 100 * sim::kMillisecond);
  Machine m(butterfly1(4), plan);
  chrys::Kernel k(m);
  k.create_process(3, [&] {
    BridgeFs fs(k, 2);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 3), back(kBlockSize);
    fs.write_block(f, 1, blk.data());  // survivor's stripe, for later
    // A budgeted write train against server 0: the request in flight when
    // the node goes catatonic at 100 ms gets no reply and no broadcast —
    // the budget is all that brings the client back.
    const Time budget = 150 * sim::kMillisecond;
    bool timed_out = false;
    Time worst = 0;
    for (std::uint32_t i = 0; i < 40 && !timed_out; ++i) {
      const Time t0 = m.now();
      const int err = k.catch_block([&] {
        if (!fs.write_block_for(f, (i % 4) * 2, blk.data(), budget))
          timed_out = true;
      });
      worst = std::max(worst, m.now() - t0);
      // A *new* request against the corpse discovers the death by touching
      // its memory; only the in-flight one needed the deadline.
      if (err == chrys::kThrowNodeDead) break;
    }
    EXPECT_TRUE(timed_out);
    EXPECT_LE(worst, budget + 50 * sim::kMillisecond) << "bounded by budget";
    // The survivor's stripe still answers inside any reasonable budget.
    EXPECT_TRUE(fs.read_block_for(f, 1, back.data(), sim::kSecond));
    EXPECT_EQ(back, blk);
    // A detector's verdict finally lands: the abandoned request parked on
    // the corpse is reclaimed and shutdown no longer waits on it.
    m.broadcast_crash(0);
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(BridgeDeadline, AbandonedRequestsDoNotStrandTheServerOrTheSlots) {
  // Time out against a *live but busy* server: the abandoned request is
  // eventually claimed by the server, which must skip the client's (gone)
  // buffers, reclaim the slot, and keep serving later requests normally.
  with_fs(8, 2, [](chrys::Kernel& k, BridgeFs& fs) {
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 5), back(kBlockSize);
    for (std::uint32_t b = 0; b < 6; ++b) fs.write_block(f, b, blk.data());
    // Pile asynchronous reads onto server 0 so a later budgeted read
    // cannot be served in time.
    const chrys::Oid dq = k.make_dual_queue();
    std::vector<std::uint32_t> rids;
    std::vector<std::vector<std::uint8_t>> bufs(6);
    for (std::uint32_t i = 0; i < 6; ++i) {
      bufs[i].assign(kBlockSize, 0);
      rids.push_back(fs.submit_read(f, 0, bufs[i].data(), dq));
    }
    // Seek+transfer is ~26 ms per access: a 1 ms budget must lose.
    EXPECT_FALSE(fs.read_block_for(f, 0, back.data(), sim::kMillisecond));
    // Drain the pile; every queued read completes fine.
    for (std::uint32_t i = 0; i < 6; ++i) {
      const std::uint32_t rid = k.dq_dequeue(dq);
      EXPECT_FALSE(fs.request_failed(rid));
      fs.finish_request(rid);
    }
    k.delete_object(dq);
    // The abandoned request was served meanwhile without touching `back`.
    fs.read_block(f, 2, back.data());
    EXPECT_EQ(back, blk);
  });
}

TEST(BridgeDeadline, ClientExitAfterAbandoningMidReplyStrandsNoServer) {
  // A client process owns its reply queue, abandons a budgeted read and
  // exits.  If the abandon lands while the server is inside its charged
  // reply enqueue, the client's exit must not reclaim the queue under the
  // server (which would fault it and leave shutdown waiting forever).  The
  // sweep steps the budget in quarters of the enqueue charge from timeouts
  // to successes, so one abandon lands mid-enqueue.
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  const Time step = m.config().dq_enqueue_ns / 4;
  int timeouts = 0;
  int successes = 0;
  k.create_process(7, [&] {
    BridgeFs fs(k, 2);
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk(kBlockSize, 9);
    fs.write_block(f, 0, blk.data());
    // Every read of block 0 from an idle server takes the same time; a
    // client's exit and the server's return to idle fit in the delay.
    Time took = 0;
    auto run_client = [&](Time budget) {
      bool ok = false;
      k.create_process(6, [&] {
        std::vector<std::uint8_t> back(kBlockSize);
        const Time t0 = m.now();
        ok = fs.read_block_for(f, 0, back.data(), budget);
        took = m.now() - t0;
      });
      k.delay(100 * sim::kMillisecond);
      return ok;
    };
    ASSERT_TRUE(run_client(0));
    const Time round_trip = took;
    // The reply lands well inside the last tenth of the round trip.
    for (Time b = round_trip - round_trip / 10; b <= round_trip; b += step) {
      if (run_client(b))
        ++successes;
      else
        ++timeouts;
    }
    fs.shutdown();
  });
  m.run();
  EXPECT_GT(timeouts, 0);
  EXPECT_GT(successes, 0);
  ASSERT_FALSE(m.deadlocked());
}

TEST(BridgeDeadline, AbandonedRequestNeverTouchesItsReplyQueue) {
  // No reply is ever enqueued for an abandoned request, so its client may
  // delete the reply queue the moment it stops waiting.  Abandon requests
  // at every stage of their life, delete each queue at once, and check
  // that the file system keeps serving and shuts down.  A server that
  // replied to an abandoned request would enqueue on a deleted queue.
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  bool shut_down = false;
  k.create_process(7, [&] {
    BridgeFs fs(k, 6);  // server s on node s; stripe s = block s
    const FileId f = fs.create("data");
    std::vector<std::uint8_t> blk, back(kBlockSize);
    for (std::uint32_t b = 0; b < 6; ++b) {
      fill_block(blk, b);
      fs.write_block(f, b, blk.data());
    }
    // Buffers of requests abandoned before their disk access completes:
    // the server must never fill them.
    std::vector<std::vector<std::uint8_t>> untouched;
    const auto submit = [&](std::uint32_t b, chrys::Oid q) {
      untouched.emplace_back(kBlockSize, 0xee);
      return fs.submit_read(f, b, untouched.back().data(), q);
    };
    // Abandon `rid` and delete its queue; true when it was still in flight.
    const auto abandon = [&](std::uint32_t rid, chrys::Oid q) {
      const bool replied = fs.abandon_request(rid);
      if (replied) fs.finish_request(rid);
      k.delete_object(q);
      return !replied;
    };
    untouched.reserve(16);

    // While queued: server 0 is busy with a read whose reply we take.
    {
      const chrys::Oid busy = k.make_dual_queue();
      std::vector<std::uint8_t> buf(kBlockSize);
      const std::uint32_t first = fs.submit_read(f, 0, buf.data(), busy);
      for (int i = 0; i < 2; ++i) {
        const chrys::Oid q = k.make_dual_queue();
        EXPECT_TRUE(abandon(submit(0, q), q)) << "queued " << i;
      }
      EXPECT_EQ(k.dq_dequeue(busy), first);
      fs.finish_request(first);
      k.delete_object(busy);
    }
    // Mid-disk-charge: seek plus transfer is ~26 ms.
    {
      const chrys::Oid q = k.make_dual_queue();
      const std::uint32_t rid = submit(1, q);
      k.delay(5 * sim::kMillisecond);
      EXPECT_EQ(fs.queue_depth(1), 1u) << "server 1 is serving it";
      EXPECT_TRUE(abandon(rid, q));
    }
    // Mid-reply-charge: sweep the abandon time across the end of one round
    // trip to idle server 2 in quarters of the reply's enqueue charge.  The
    // outcomes flip from abandoned to replied once, at the reply, so the
    // last abandon lands inside the reply charge.
    {
      std::vector<std::uint8_t> buf(kBlockSize);
      const chrys::Oid q0 = k.make_dual_queue();
      const Time t0 = m.now();
      const std::uint32_t rid0 = fs.submit_read(f, 2, buf.data(), q0);
      EXPECT_EQ(k.dq_dequeue(q0), rid0);
      const Time round_trip = m.now() - t0;
      fs.finish_request(rid0);
      k.delete_object(q0);
      const Time step = m.config().dq_enqueue_ns / 4;
      int abandoned = 0, replied = 0;
      for (Time d = round_trip - round_trip / 20; d <= round_trip; d += step) {
        const chrys::Oid q = k.make_dual_queue();
        const std::uint32_t rid = fs.submit_read(f, 2, buf.data(), q);
        k.delay(d);
        if (abandon(rid, q)) {
          EXPECT_EQ(replied, 0) << "abandoned after a reply at d=" << d;
          ++abandoned;
        } else {
          ++replied;
        }
        k.delay(50 * sim::kMillisecond);  // the server goes idle again
      }
      EXPECT_GT(abandoned, 0);
      EXPECT_GT(replied, 0);
    }
    // Loud and silent deaths: one request abandoned mid-service and one
    // abandoned while queued behind it, then a kept request that must get
    // its fail-reply.  Server 3's node crashes with a broadcast; server 4's
    // dies silently and a detector's verdict is broadcast.
    for (const bool silent : {false, true}) {
      const std::uint32_t s = silent ? 4 : 3;
      const chrys::Oid q1 = k.make_dual_queue();
      const std::uint32_t in_service = submit(s, q1);
      k.delay(5 * sim::kMillisecond);
      const chrys::Oid q2 = k.make_dual_queue();
      const std::uint32_t queued = submit(s, q2);
      const chrys::Oid kept = k.make_dual_queue();
      std::vector<std::uint8_t> buf(kBlockSize);
      const std::uint32_t rid = fs.submit_read(f, s, buf.data(), kept);
      EXPECT_EQ(fs.queue_depth(s), 3u);
      EXPECT_TRUE(abandon(in_service, q1));
      EXPECT_TRUE(abandon(queued, q2));
      m.kill_node(s, m.now() + sim::kMillisecond, silent);
      k.delay(10 * sim::kMillisecond);
      if (silent) m.broadcast_crash(s);
      EXPECT_EQ(k.dq_dequeue(kept), rid);
      EXPECT_TRUE(fs.request_failed(rid));
      fs.finish_request(rid);
      k.delete_object(kept);
    }
    EXPECT_EQ(fs.servers_lost(), 2u);

    // Later requests round-trip on every live stripe, and no abandoned
    // request filled its client's buffer.
    for (const std::uint32_t b : {0u, 1u, 2u, 5u}) {
      fill_block(blk, b + 10);
      fs.write_block(f, b, blk.data());
      fs.read_block(f, b, back.data());
      EXPECT_EQ(back, blk) << "block " << b;
    }
    for (const auto& buf : untouched)
      EXPECT_EQ(buf, std::vector<std::uint8_t>(kBlockSize, 0xee));
    fs.shutdown();
    shut_down = true;
  });
  m.run();
  EXPECT_TRUE(shut_down);
  ASSERT_FALSE(m.deadlocked());
}

}  // namespace
}  // namespace bfly::bridge
