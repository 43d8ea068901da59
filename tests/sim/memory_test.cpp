#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "../render_stats.hpp"
#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

// Runs `body` on node `n` of machine `m` and completes the run.
void on_node(Machine& m, NodeId n, std::function<void()> body) {
  m.spawn(n, std::move(body));
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Memory, LocalReadCosts800ns) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(0, 64);
  Time dt = 0;
  on_node(m, 0, [&] {
    const Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    dt = m.now() - t0;
  });
  EXPECT_EQ(dt, 800u);  // 300 issue + 500 module service
}

TEST(Memory, RemoteReadIsFiveTimesLocal) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(5, 64);
  Time dt = 0;
  on_node(m, 0, [&] {
    const Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    dt = m.now() - t0;
  });
  EXPECT_EQ(dt, 4000u);  // the paper's "about 4 us, roughly five times local"
}

TEST(Memory, WriteReadRoundTripsData) {
  Machine m(butterfly1(8));
  PhysAddr a = m.alloc(3, 128);
  std::uint64_t got = 0;
  on_node(m, 1, [&] {
    m.write<std::uint64_t>(a, 0xdeadbeefcafef00dULL);
    got = m.read<std::uint64_t>(a.plus(0));
  });
  EXPECT_EQ(got, 0xdeadbeefcafef00dULL);
}

TEST(Memory, RemoteTrafficStealsCyclesFromHomeNode) {
  // The paper: "remote references steal memory cycles from the local
  // processor".  A node hammered by remote readers must see its own local
  // references slow down.
  auto run_victim = [](bool hammer) {
    Machine m(butterfly1(64));
    PhysAddr local = m.alloc(0, 64);
    PhysAddr shared = m.alloc(0, 64);  // lives on the victim's node
    Time victim_time = 0;
    m.spawn(0, [&] {
      const Time t0 = m.now();
      for (int i = 0; i < 200; ++i) (void)m.read<std::uint32_t>(local);
      victim_time = m.now() - t0;
    });
    if (hammer) {
      for (NodeId n = 1; n <= 32; ++n) {
        m.spawn(n, [&m, shared] {
          for (int i = 0; i < 100; ++i) (void)m.read<std::uint32_t>(shared);
        });
      }
    }
    m.run();
    return victim_time;
  };
  const Time quiet = run_victim(false);
  const Time contended = run_victim(true);
  EXPECT_EQ(quiet, 200u * 800u);
  EXPECT_GT(contended, quiet * 3) << "home module occupancy must stall the "
                                     "local processor under remote load";
}

TEST(Memory, AtomicFetchAdd) {
  Machine m(butterfly1(16));
  PhysAddr ctr = m.alloc(7, 8);
  on_node(m, 0, [&] { m.write<std::uint32_t>(ctr, 0); });
  for (NodeId n = 0; n < 16; ++n)
    m.spawn(n, [&m, ctr] {
      for (int i = 0; i < 10; ++i) (void)m.fetch_add_u32(ctr, 1);
    });
  m.run();
  EXPECT_EQ(m.peek<std::uint32_t>(ctr), 160u);
}

TEST(Memory, TestAndSetReturnsPreviousValue) {
  Machine m(butterfly1(4));
  PhysAddr lock = m.alloc(2, 8);
  std::uint32_t first = 99, second = 99;
  on_node(m, 0, [&] {
    first = m.test_and_set(lock);
    second = m.test_and_set(lock);
  });
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
}

TEST(Memory, BlockCopyMovesBytesAndIsCheaperPerWord) {
  Machine m(butterfly1(128));
  constexpr std::size_t kBytes = 4096;
  PhysAddr src = m.alloc(9, kBytes);
  PhysAddr dst = m.alloc(0, kBytes);
  std::vector<std::uint8_t> pattern(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) pattern[i] = static_cast<std::uint8_t>(i * 7);
  m.poke_bytes(src, pattern.data(), kBytes);

  Time block_time = 0, word_time = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    m.block_copy(dst, src, kBytes);
    block_time = m.now() - t0;
    t0 = m.now();
    for (std::size_t w = 0; w < kBytes / 4; ++w)
      (void)m.read<std::uint32_t>(src.plus(4 * w));
    word_time = m.now() - t0;
  });
  m.run();

  std::vector<std::uint8_t> got(kBytes);
  m.peek_bytes(got.data(), dst, kBytes);
  EXPECT_EQ(got, pattern);
  EXPECT_LT(block_time * 3, word_time)
      << "microcoded block transfer must be much cheaper than word-at-a-time "
         "remote reads (this underlies the paper's 42% Hough improvement)";
}

TEST(Memory, AllocatorReusesFreedBlocks) {
  Machine m(butterfly1(2));
  PhysAddr a = m.alloc(0, 100);
  m.free(a, 100);
  PhysAddr b = m.alloc(0, 100);
  EXPECT_EQ(a, b);  // first fit re-uses the freed block
}

TEST(Memory, FreeListChurnStaysBounded) {
  // Regression: free() used to append blocks without coalescing, so
  // alloc/free churn at one size grew the free list without bound.
  Machine m(butterfly1(2));
  for (int i = 0; i < 1000; ++i) {
    PhysAddr a = m.alloc(0, 48);
    m.free(a, 48);
    ASSERT_LE(m.free_blocks_on(0), 1u) << "iteration " << i;
  }
  EXPECT_EQ(m.allocated_on(0), 0u);
}

TEST(Memory, AdjacentFreeBlocksCoalesce) {
  Machine m(butterfly1(2));
  PhysAddr a = m.alloc(0, 64);
  PhysAddr b = m.alloc(0, 64);
  PhysAddr c = m.alloc(0, 64);
  // Free out of order: middle, then both neighbours — every merge direction
  // (with predecessor, with successor, bridging) is exercised.
  m.free(b, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);
  m.free(a, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);  // a merged in front of b
  m.free(c, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);  // c merged behind a+b
  // The coalesced block serves an allocation none of the fragments could.
  PhysAddr big = m.alloc(0, 192);
  EXPECT_EQ(big, a);
  EXPECT_EQ(m.free_blocks_on(0), 0u);
}

TEST(Memory, InterleavedSizesCoalesceAcrossFrees) {
  Machine m(butterfly1(2));
  std::vector<PhysAddr> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(m.alloc(0, 32));
  for (int i = 15; i >= 0; --i) m.free(blocks[i], 32);  // reverse order
  EXPECT_EQ(m.free_blocks_on(0), 1u);
  EXPECT_EQ(m.alloc(0, 16 * 32), blocks[0]);
}

TEST(Memory, AllocatorExhaustionThrows) {
  MachineConfig cfg = butterfly1(2);
  cfg.memory_per_node = 4096;
  Machine m(cfg);
  (void)m.alloc(0, 4000);
  EXPECT_THROW((void)m.alloc(0, 4000), SimError);
  (void)m.alloc(1, 4000);  // other nodes unaffected
}

TEST(Memory, OutOfRangeAddressThrows) {
  MachineConfig cfg = butterfly1(2);
  cfg.memory_per_node = 1024;
  Machine m(cfg);
  m.spawn(0, [&] {
    EXPECT_THROW(m.write<std::uint32_t>(PhysAddr{0, 2048}, 1), SimError);
    EXPECT_THROW((void)m.read<std::uint8_t>(PhysAddr{99, 0}), SimError);
  });
  m.run();
}

TEST(Memory, AccessWordsAggregatesCost) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(3, 4096);
  Time batched = 0, individual = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    m.access_words(a, 100);
    batched = m.now() - t0;
    t0 = m.now();
    for (int i = 0; i < 100; ++i) (void)m.read<std::uint32_t>(a);
    individual = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(batched, individual);  // same simulated cost, fewer host events
  EXPECT_EQ(m.stats().node[0].remote_refs, 200u);
}

TEST(Memory, StatsDistinguishLocalAndRemote) {
  Machine m(butterfly1(8));
  PhysAddr here = m.alloc(0, 16);
  PhysAddr there = m.alloc(4, 16);
  m.spawn(0, [&] {
    (void)m.read<std::uint32_t>(here);
    (void)m.read<std::uint32_t>(there);
    (void)m.read<std::uint32_t>(there);
  });
  m.run();
  EXPECT_EQ(m.stats().node[0].local_refs, 1u);
  EXPECT_EQ(m.stats().node[0].remote_refs, 2u);
  EXPECT_EQ(m.stats().node[4].serviced_remote, 2u);
}

// --- The one timed-reference path -------------------------------------------

// Logs each on_reference as "<requester>><home> <op><words> q<queue_ns>".
class ReferenceLog final : public Probe {
 public:
  void on_reference(Fiber*, NodeId req, PhysAddr a, std::uint32_t words,
                    MemOp op, Time queue_ns, Time) override {
    static constexpr const char* kOp[] = {"read", "write", "atomic", "aggr"};
    if (!log.empty()) log += ", ";
    log += std::to_string(req) + ">" + std::to_string(a.node) + " " +
           kOp[static_cast<int>(op)] + std::to_string(words) + " q" +
           std::to_string(queue_ns);
  }
  std::string log;
};

using test::render_stats;

TEST(Memory, EveryTimedOpKeepsItsCostAndAccounting) {
  // Each operation runs once on node 0 against a cell homed on node 0
  // (local) or node 5 (remote); block_copy's second end is node 0 or 6.  A
  // companion on node 2 touches the same cell at the same instant: three
  // aggregate words that make the operation queue, or, with combining
  // armed, a fetch_add that leads (companion first) or follows.  Pinned:
  // the operation's own time, every NodeStats field, the probe's reports.
  // Remote block transfers count one serviced reference on each module
  // they occupy; every other value is as the per-operation copies had it.
  using Op = std::function<void(Machine&, PhysAddr, PhysAddr)>;
  struct Case {
    const char* name;
    NodeId home;
    bool combining;
    bool companion_first;
    Op op;
    const char* expect;
  };
  const Op read = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.read<std::uint32_t>(a);
  };
  const Op write = [](Machine& m, PhysAddr a, PhysAddr) {
    m.write<std::uint64_t>(a, 7);
  };
  const Op fetch_add = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.fetch_add_u32(a, 3);
  };
  const Op fetch_or = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.fetch_or_u32(a, 4);
  };
  const Op tas = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.test_and_set(a);
  };
  const Op swap = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.swap_u32(a, 9);
  };
  const Op cas = [](Machine& m, PhysAddr a, PhysAddr) {
    (void)m.cas_u32(a, 0, 1);
  };
  const Op copy = [](Machine& m, PhysAddr a, PhysAddr b) {
    m.block_copy(b, a, 40);
  };
  const Op block_read = [](Machine& m, PhysAddr a, PhysAddr) {
    std::uint8_t buf[40];
    m.block_read(buf, a, sizeof buf);
  };
  const Op block_write = [](Machine& m, PhysAddr a, PhysAddr) {
    const std::uint8_t buf[40] = {};
    m.block_write(a, buf, sizeof buf);
  };
  const Op aggregate = [](Machine& m, PhysAddr a, PhysAddr) {
    m.access_words(a, 10);
  };
  const Case cases[] = {
      {"read local", 0, false, true, read,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 read1 q2300"},
      {"read remote", 5, false, true, read,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 read1 q1500"},
      {"write local", 0, false, true, write,
       "dt=3600; "
       "n0{local=1 serviced=3 stall=3600 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 write2 q2300"},
      {"write remote", 5, false, true, write,
       "dt=4400; "
       "n0{remote=1 stall=4400 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 write2 q1500"},
      {"fetch_add local", 0, false, true, fetch_add,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 atomic1 q2300"},
      {"fetch_add remote", 5, false, true, fetch_add,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 atomic1 q1500"},
      {"fetch_or local", 0, false, true, fetch_or,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 atomic1 q2300"},
      {"fetch_or remote", 5, false, true, fetch_or,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 atomic1 q1500"},
      {"test_and_set local", 0, false, true, tas,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 atomic1 q2300"},
      {"test_and_set remote", 5, false, true, tas,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 atomic1 q1500"},
      {"swap local", 0, false, true, swap,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 atomic1 q2300"},
      {"swap remote", 5, false, true, swap,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 atomic1 q1500"},
      {"cas local", 0, false, true, cas,
       "dt=3100; "
       "n0{local=1 serviced=3 stall=3100 queue=2300} n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 atomic1 q2300"},
      {"cas remote", 5, false, true, cas,
       "dt=3900; "
       "n0{remote=1 stall=3900 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 atomic1 q1500"},
      {"block_copy local", 0, false, true, copy,
       "dt=13100; "
       "n0{local=1 serviced=3 stall=13100 queue=2300 block=10} "
       "n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 read10 q2300, 0>0 write10 q0"},
      {"block_copy remote", 5, false, true, copy,
       "dt=13900; "
       "n0{remote=1 stall=13900 queue=1500 block=10} n2{remote=3 stall=7200} "
       "n5{serviced=4} n6{serviced=1}; "
       "2>5 aggr3 q0, 0>5 read10 q1500, 0>6 write10 q0"},
      {"block_read local", 0, false, true, block_read,
       "dt=13100; "
       "n0{local=1 serviced=3 stall=13100 queue=2300 block=10} "
       "n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 read10 q2300"},
      {"block_read remote", 5, false, true, block_read,
       "dt=13900; "
       "n0{remote=1 stall=13900 queue=1500 block=10} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 read10 q1500"},
      {"block_write local", 0, false, true, block_write,
       "dt=13100; "
       "n0{local=1 serviced=3 stall=13100 queue=2300 block=10} "
       "n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 write10 q2300"},
      {"block_write remote", 5, false, true, block_write,
       "dt=13900; "
       "n0{remote=1 stall=13900 queue=1500 block=10} n2{remote=3 stall=7200} "
       "n5{serviced=4}; "
       "2>5 aggr3 q0, 0>5 write10 q1500"},
      {"access_words local", 0, false, true, aggregate,
       "dt=10300; "
       "n0{local=10 serviced=3 stall=10300 queue=2300} "
       "n2{remote=3 stall=7200}; "
       "2>0 aggr3 q0, 0>0 aggr10 q2300"},
      {"access_words remote", 5, false, true, aggregate,
       "dt=25500; "
       "n0{remote=10 stall=25500 queue=1500} n2{remote=3 stall=7200} "
       "n5{serviced=13}; "
       "2>5 aggr3 q0, 0>5 aggr10 q1500"},
      {"combining local", 0, true, true, fetch_add,
       "dt=2100; "
       "n0{local=1 serviced=1 stall=2100 queue=1300} n2{remote=1 stall=2400}; "
       "2>0 atomic1 q0, 0>0 atomic1 q1300"},
      {"combining leader", 5, true, false, fetch_add,
       "dt=2400; "
       "n0{remote=1 stall=2400} n2{remote=1 stall=2400} n5{serviced=1}; "
       "0>5 atomic1 q0, 2>5 atomic1 q0"},
      {"combining follower", 5, true, true, fetch_add,
       "dt=2400; "
       "n0{remote=1 stall=2400} n2{remote=1 stall=2400} n5{serviced=1}; "
       "2>5 atomic1 q0, 0>5 atomic1 q0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MachineConfig cfg = butterfly1(16);
    cfg.model_switch_contention = c.combining;
    cfg.switch_combining = c.combining;
    Machine m(cfg);
    ReferenceLog log;
    m.attach(&log);
    const PhysAddr a = m.alloc(c.home, 64);
    const PhysAddr b = m.alloc(c.home == 0 ? 0 : 6, 64);
    Time dt = 0;
    auto companion = [&] {
      if (c.combining)
        (void)m.fetch_add_u32(a, 1);
      else
        m.access_words(a, 3);
    };
    auto under_test = [&] {
      const Time t0 = m.now();
      c.op(m, a, b);
      dt = m.now() - t0;
    };
    if (c.companion_first) m.spawn(2, companion);
    m.spawn(0, under_test);
    if (!c.companion_first) m.spawn(2, companion);
    m.run();
    ASSERT_FALSE(m.deadlocked());
    const std::string got = "dt=" + std::to_string(dt) + "; " +
                            render_stats(m.stats()) + "; " + log.log;
    EXPECT_EQ(got, c.expect);
  }
}

TEST(Memory, BlockTransfersCountServicedRemoteOnTheModulesTheyOccupy) {
  // Like a single reference, a block transfer is serviced by every remote
  // module it occupies: block_copy by its source's and its destination's,
  // once per module when both ends share one.
  Machine m(butterfly1(8));
  const PhysAddr mine = m.alloc(0, 64);
  const PhysAddr a = m.alloc(3, 64);
  const PhysAddr b = m.alloc(5, 64);
  const PhysAddr c = m.alloc(6, 64);
  on_node(m, 0, [&] {
    std::uint8_t buf[64] = {};
    m.block_read(buf, a, 64);
    m.block_write(b, buf, 64);
    m.block_copy(c, a, 64);
    m.block_copy(mine, b, 64);
    m.block_copy(c.plus(32), c, 32);
  });
  const std::vector<NodeStats>& s = m.stats().node;
  EXPECT_EQ(s[3].serviced_remote, 2u);
  EXPECT_EQ(s[5].serviced_remote, 2u);
  EXPECT_EQ(s[6].serviced_remote, 2u);
  EXPECT_EQ(s[0].serviced_remote, 0u);
  EXPECT_EQ(s[0].remote_refs, 5u);
  EXPECT_EQ(s[0].local_refs, 0u);
}

TEST(Memory, BlockCopyChecksEveryHomeAliveBeforeAnyReach) {
  // The source sits across an open partition and the destination is dead:
  // the dead-node check of both homes runs before the partition check.
  FaultPlan plan;
  plan.partition({0}, {5}, 1, kSecond);
  plan.kill(6, 1);
  Machine m(butterfly1(8), plan);
  const PhysAddr src = m.alloc(5, 64);
  const PhysAddr dst = m.alloc(6, 64);
  std::string raised;
  m.spawn(
      0,
      [&] {
        try {
          m.block_copy(dst, src, 16);
        } catch (const NodeDeadError& e) {
          raised = "dead " + std::to_string(e.node());
        } catch (const NetUnreachableError& e) {
          raised = "unreachable " + std::to_string(e.node());
        }
      },
      "copier", 10);
  m.run();
  EXPECT_EQ(raised, "dead 6");
  EXPECT_EQ(m.stats().dead_node_refs, 1u);
  EXPECT_EQ(m.stats().net_unreachable_refs, 0u);
}

TEST(Memory, EveryOperationButAccessWordsRollsTheMemoryFault) {
  // Every roll faults.  An operation that moves data raises
  // MemoryFaultError after its time is charged; access_words moves none
  // and never rolls.
  FaultPlan plan;
  plan.mem_fault_prob = 1.0;
  Machine m(butterfly1(8), plan);
  const PhysAddr a = m.alloc(3, 64);
  std::string faulted;
  on_node(m, 0, [&] {
    auto attempt = [&](const char* name, const std::function<void()>& op) {
      try {
        op();
      } catch (const MemoryFaultError&) {
        faulted += name;
      }
    };
    std::uint8_t buf[8] = {};
    attempt("aggregate ", [&] { m.access_words(a, 4); });
    attempt("read ", [&] { (void)m.read<std::uint32_t>(a); });
    attempt("atomic ", [&] { (void)m.fetch_add_u32(a, 1); });
    attempt("block", [&] { m.block_write(a, buf, sizeof buf); });
  });
  EXPECT_EQ(faulted, "read atomic block");
  EXPECT_EQ(m.stats().mem_faults_injected, 3u);
}

}  // namespace
}  // namespace bfly::sim
