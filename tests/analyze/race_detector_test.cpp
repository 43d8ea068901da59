// Planted-race tests for the bfly::analyze happens-before detector, plus
// the lock-order and hot-word lints.  Each racy microprogram has a fixed
// twin that differs only in the synchronization, and the detector must
// flag exactly the planted race in one and nothing in the other.
#include <gtest/gtest.h>

#include <string>

#include "analyze/analyze.hpp"
#include "chrysalis/kernel.hpp"
#include "apps/graph.hpp"
#include "chrysalis/spinlock.hpp"
#include "golden_cc_report.hpp"

namespace bfly::analyze {
namespace {

using sim::butterfly1;
using sim::Machine;

// --- Planted race 1: the unsynchronized counter ------------------------------

// Two processes read-modify-write one shared word with no synchronization:
// the classic lost-update bug.  Exactly one racy word, attributed to the
// two incrementer processes and the labelled object.
TEST(RaceDetector, UnsynchronizedCounterRaces) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr counter = m.alloc(0, 4);
  m.poke<std::uint32_t>(counter, 0);
  m.label_memory(counter, 4, "counter");
  for (std::uint32_t a = 0; a < 2; ++a) {
    k.create_process(
        a,
        [&m, counter] {
          for (int i = 0; i < 4; ++i) {
            const auto v = m.read<std::uint32_t>(counter);
            m.write<std::uint32_t>(counter, v + 1);
          }
        },
        "inc" + std::to_string(a));
  }
  m.run();
  EXPECT_EQ(an.races_total(), 1u);
  ASSERT_EQ(an.races().size(), 1u);
  const RaceReport& r = an.races()[0];
  EXPECT_EQ(r.object, "counter");
  EXPECT_EQ(r.addr, counter);
  // One access from each incrementer, in either order.
  EXPECT_NE(r.actor, r.prior_actor);
  EXPECT_TRUE(r.actor == "inc0" || r.actor == "inc1") << r.actor;
  EXPECT_TRUE(r.prior_actor == "inc0" || r.prior_actor == "inc1")
      << r.prior_actor;
  EXPECT_NE(an.report().find("RACE on counter"), std::string::npos);
}

// Same program with the increment under a spin lock: the lock word's
// test-and-set / release-store pair orders the critical sections, so the
// counter is clean.
TEST(RaceDetector, SpinLockedCounterIsClean) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr counter = m.alloc(0, 4);
  const sim::PhysAddr cell = m.alloc(0, 4);
  m.poke<std::uint32_t>(counter, 0);
  m.poke<std::uint32_t>(cell, 0);
  m.label_memory(counter, 4, "counter");
  for (std::uint32_t a = 0; a < 2; ++a) {
    k.create_process(
        a,
        [&m, counter, cell] {
          chrys::SpinLock lock(m, cell);
          for (int i = 0; i < 4; ++i) {
            lock.acquire();
            const auto v = m.read<std::uint32_t>(counter);
            m.write<std::uint32_t>(counter, v + 1);
            lock.release();
          }
        },
        "inc" + std::to_string(a));
  }
  m.run();
  EXPECT_EQ(an.races_total(), 0u) << an.report();
  EXPECT_EQ(m.peek<std::uint32_t>(counter), 8u);
}

// A PNC fetch_add makes the counter itself a synchronization cell: clean.
TEST(RaceDetector, AtomicCounterIsClean) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr counter = m.alloc(0, 4);
  m.poke<std::uint32_t>(counter, 0);
  m.label_memory(counter, 4, "counter");
  for (std::uint32_t a = 0; a < 2; ++a) {
    k.create_process(a, [&m, counter] {
      for (int i = 0; i < 4; ++i) (void)m.fetch_add_u32(counter, 1);
    });
  }
  m.run();
  EXPECT_EQ(an.races_total(), 0u) << an.report();
  EXPECT_EQ(m.peek<std::uint32_t>(counter), 8u);
}

// --- Planted race 2: the missed event_wait ------------------------------------

// The producer writes a result and posts an event; the consumer "knows"
// the data is ready by then and just sleeps instead of waiting.  Timing
// hides the bug (the read really does come later), but there is no
// happens-before edge — exactly what a race detector exists to catch.
TEST(RaceDetector, MissedEventWaitRaces) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr result = m.alloc(0, 4);
  m.poke<std::uint32_t>(result, 0);
  m.label_memory(result, 4, "result");
  chrys::Oid ev = chrys::kNoObject;
  std::uint32_t got = 0;
  k.create_process(
      0,
      [&] {
        ev = k.make_event();
        k.delay(10 * sim::kMillisecond);  // "surely done by now"
        got = m.read<std::uint32_t>(result);
      },
      "consumer");
  k.create_process(
      1,
      [&] {
        k.delay(2 * sim::kMillisecond);
        m.write<std::uint32_t>(result, 99);
        k.event_post(ev, 1);
      },
      "producer");
  m.run();
  EXPECT_EQ(got, 99u);  // timing hid the bug...
  EXPECT_EQ(an.races_total(), 1u) << an.report();  // ...the clocks did not
  ASSERT_EQ(an.races().size(), 1u);
  const RaceReport& r = an.races()[0];
  EXPECT_EQ(r.object, "result");
  EXPECT_EQ(r.prior_actor, "producer");
  EXPECT_EQ(r.prior_op, sim::MemOp::kWrite);
  EXPECT_EQ(r.actor, "consumer");
}

// Fixed twin: the consumer actually waits, the event edge orders the
// accesses, zero races.
TEST(RaceDetector, PairedEventWaitIsClean) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr result = m.alloc(0, 4);
  m.poke<std::uint32_t>(result, 0);
  m.label_memory(result, 4, "result");
  chrys::Oid ev = chrys::kNoObject;
  std::uint32_t got = 0;
  k.create_process(
      0,
      [&] {
        ev = k.make_event();
        (void)k.event_wait(ev);
        got = m.read<std::uint32_t>(result);
      },
      "consumer");
  k.create_process(
      1,
      [&] {
        k.delay(2 * sim::kMillisecond);
        m.write<std::uint32_t>(result, 99);
        k.event_post(ev, 1);
      },
      "producer");
  m.run();
  EXPECT_EQ(got, 99u);
  EXPECT_EQ(an.races_total(), 0u) << an.report();
}

// --- Lock-order lint -----------------------------------------------------------

// Two processes take two spin locks in opposite orders, staggered so this
// run gets away with it: a potential deadlock the acquisition graph still
// exposes as an A->B->A cycle.
TEST(LockOrder, OppositeOrdersMakeACycle) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr ca = m.alloc(0, 4);
  const sim::PhysAddr cb = m.alloc(1, 4);
  m.poke<std::uint32_t>(ca, 0);
  m.poke<std::uint32_t>(cb, 0);
  m.label_memory(ca, 4, "lockA");
  m.label_memory(cb, 4, "lockB");
  k.create_process(0, [&] {
    chrys::SpinLock a(m, ca), b(m, cb);
    a.acquire();
    b.acquire();
    b.release();
    a.release();
  });
  k.create_process(1, [&] {
    chrys::SpinLock a(m, ca), b(m, cb);
    k.delay(50 * sim::kMillisecond);  // stagger: no actual deadlock today
    b.acquire();
    a.acquire();
    a.release();
    b.release();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  const auto cycles = an.lock_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].names.size(), 2u);
  EXPECT_TRUE((cycles[0].names[0] == "lockA" &&
               cycles[0].names[1] == "lockB") ||
              (cycles[0].names[0] == "lockB" && cycles[0].names[1] == "lockA"))
      << cycles[0].names[0] << " / " << cycles[0].names[1];
  EXPECT_NE(an.report().find("CYCLE"), std::string::npos);
  EXPECT_EQ(an.races_total(), 0u) << an.report();
}

// Consistent A-then-B ordering everywhere: no cycle.
TEST(LockOrder, ConsistentOrderIsClean) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr ca = m.alloc(0, 4);
  const sim::PhysAddr cb = m.alloc(1, 4);
  m.poke<std::uint32_t>(ca, 0);
  m.poke<std::uint32_t>(cb, 0);
  for (std::uint32_t p = 0; p < 2; ++p) {
    k.create_process(p, [&, p] {
      chrys::SpinLock a(m, ca), b(m, cb);
      k.delay(p * 50 * sim::kMillisecond);
      a.acquire();
      b.acquire();
      b.release();
      a.release();
    });
  }
  m.run();
  EXPECT_TRUE(an.lock_cycles().empty());
}

// --- Hot-word lint -------------------------------------------------------------

// One fiber hammers a remote word; its home module spends a visible
// fraction of the run serving remote traffic for that single address —
// the paper's memory-contention smell, as a report.
TEST(HotWord, RemoteHammeredWordIsFlagged) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  const sim::PhysAddr cell = m.alloc(0, 4);
  m.poke<std::uint32_t>(cell, 0);
  m.label_memory(cell, 4, "hot_cell");
  m.spawn(1, [&] {
    for (int i = 0; i < 2000; ++i) (void)m.read<std::uint32_t>(cell);
  });
  m.run();
  const auto hot = an.hot_words();
  ASSERT_GE(hot.size(), 1u) << an.report();
  EXPECT_EQ(hot[0].object, "hot_cell");
  EXPECT_GE(hot[0].remote_words, 2000u);
  EXPECT_GE(hot[0].occupancy, 0.05);
  EXPECT_EQ(an.races_total(), 0u);
}

// The same traffic issued locally never trips the remote-occupancy lint.
TEST(HotWord, LocalTrafficIsNotFlagged) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  const sim::PhysAddr cell = m.alloc(0, 4);
  m.poke<std::uint32_t>(cell, 0);
  m.spawn(0, [&] {
    for (int i = 0; i < 2000; ++i) (void)m.read<std::uint32_t>(cell);
  });
  m.run();
  EXPECT_TRUE(an.hot_words().empty()) << an.report();
}

// --- Mechanics ----------------------------------------------------------------

// Freed memory must not leak epochs into its next owner: allocate, race-free
// write, free, reallocate from another actor — no false race.
TEST(RaceDetector, FreeClearsShadowState) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  k.create_process(0, [&] {
    const sim::PhysAddr a = m.alloc(0, 8);
    m.write<std::uint32_t>(a, 1);
    m.free(a, 8);
    k.delay(sim::kMillisecond);
  });
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    // First-fit hands back the same range the other process just used.
    const sim::PhysAddr b = m.alloc(0, 8);
    m.write<std::uint32_t>(b, 2);
    m.free(b, 8);
  });
  m.run();
  EXPECT_EQ(an.races_total(), 0u) << an.report();
}

// Children spawned one after another on one node, each after the previous
// one finished and was freed: the allocator hands a later child a freed
// child's address.  Actors are per fiber, never per address, so the later
// child's read of a word the first child wrote, with nothing ordering the
// two, is a race.
TEST(RaceDetector, ReusedFiberAddressIsAFreshActor) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  const sim::PhysAddr word = m.alloc(0, 4);
  sim::Fiber* writer = nullptr;
  bool reused = false;
  m.spawn(1, [&] {
    constexpr int kTries = 16;
    for (int i = 0; i < kTries && !reused; ++i) {
      bool read = false;
      bool done = false;
      sim::Fiber* f = m.spawn(0, [&, i] {
        if (i == 0) m.write<std::uint32_t>(word, 1);
        if (read) (void)m.read<std::uint32_t>(word);
        done = true;
      });
      if (i == 0) writer = f;
      reused = i > 0 && f == writer;
      read = reused || i == kTries - 1;
      while (!done) m.charge(sim::kMillisecond);
      m.charge(sim::kMillisecond);  // let the engine reap the child
    }
  });
  m.run();
#if !defined(__SANITIZE_ADDRESS__)  // ASan quarantines freed memory
  EXPECT_TRUE(reused);
#endif
  EXPECT_EQ(an.races_total(), 1u) << an.report();
}

// Suppressions drop matching objects from the report but the shadow word
// still stops re-reporting.
TEST(RaceDetector, SuppressionSilencesAnObject) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  an.suppress("counter");
  chrys::Kernel k(m);
  const sim::PhysAddr counter = m.alloc(0, 4);
  m.poke<std::uint32_t>(counter, 0);
  m.label_memory(counter, 4, "counter");
  for (std::uint32_t a = 0; a < 2; ++a) {
    k.create_process(a, [&m, counter] {
      for (int i = 0; i < 4; ++i) {
        const auto v = m.read<std::uint32_t>(counter);
        m.write<std::uint32_t>(counter, v + 1);
      }
    });
  }
  m.run();
  EXPECT_EQ(an.races_total(), 0u);
  EXPECT_TRUE(an.races().empty());
}

// --- Range shadow state ---------------------------------------------------------
//
// Shadow state is kept per address range; these pin down that a block
// reference still behaves like that many single-word references.

// Writer and reader of a labelled 4-word block, unordered.  `prep` runs in
// the writer before its block write; the reader block-reads `read_bytes`
// from `read_at` 5 ms later, with no happens-before edge.
struct Block {
  sim::PhysAddr base;
  std::uint32_t words[4] = {1, 2, 3, 4};
};

void racy_block_pair(Machine& m, chrys::Kernel& k, const Block& b,
                     sim::PhysAddr read_at, std::size_t read_bytes) {
  k.create_process(
      0, [&m, &b] { m.block_write(b.base, b.words, sizeof b.words); },
      "writer");
  k.create_process(
      1,
      [&m, &k, read_at, read_bytes] {
        k.delay(5 * sim::kMillisecond);
        std::uint32_t got[4] = {};
        m.block_read(got, read_at, read_bytes);
      },
      "reader");
}

// One block write racing one block read: one report per word, each with its
// own address and label+offset name, in address order.
TEST(RangeShadow, BlockWriteRacingBlockReadReportsEveryWord) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  Block b;
  b.base = m.alloc(0, 16);
  m.label_memory(b.base, 16, "blk");
  racy_block_pair(m, k, b, b.base, 16);
  m.run();
  EXPECT_EQ(an.races_total(), 4u) << an.report();
  ASSERT_EQ(an.races().size(), 4u);
  const char* names[] = {"blk", "blk+4", "blk+8", "blk+12"};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const RaceReport& r = an.races()[i];
    EXPECT_EQ(r.addr, (sim::PhysAddr{0, b.base.offset + 4 * i}));
    EXPECT_EQ(r.object, names[i]);
    EXPECT_EQ(r.prior_actor, "writer");
    EXPECT_EQ(r.prior_op, sim::MemOp::kWrite);
    EXPECT_EQ(r.actor, "reader");
    EXPECT_EQ(r.op, sim::MemOp::kRead);
  }
}

// A suppression that names one word of a labelled block drops only that
// word; its neighbours in the same block reference still report.
TEST(RangeShadow, SuppressionMatchingPartOfABlock) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  an.suppress("blk+8");
  chrys::Kernel k(m);
  Block b;
  b.base = m.alloc(0, 16);
  m.label_memory(b.base, 16, "blk");
  racy_block_pair(m, k, b, b.base, 16);
  m.run();
  EXPECT_EQ(an.races_total(), 3u) << an.report();
  ASSERT_EQ(an.races().size(), 3u);
  EXPECT_EQ(an.races()[0].object, "blk");
  EXPECT_EQ(an.races()[1].object, "blk+4");
  EXPECT_EQ(an.races()[2].object, "blk+12");
}

// A synchronization cell in the middle of a plain block read is an acquire
// at its place in address order: the word before it races, the word after
// it is ordered by it.  The writer fills words 0 and 2 and then releases
// through a plain store to the sync cell (word 1).
TEST(RangeShadow, SyncWordInsideABlockOrdersOnlyTheWordsAfterIt) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr base = m.alloc(0, 12);
  m.label_memory(base, 12, "blk");
  const sim::PhysAddr cell{0, base.offset + 4};
  k.create_process(
      0,
      [&m, base, cell] {
        (void)m.fetch_add_u32(cell, 0);  // word 1 becomes a sync cell
        m.write<std::uint32_t>(base, 1);
        m.write<std::uint32_t>(sim::PhysAddr{0, base.offset + 8}, 3);
        m.write<std::uint32_t>(cell, 2);  // release store
      },
      "writer");
  k.create_process(
      1,
      [&m, &k, base] {
        k.delay(5 * sim::kMillisecond);
        std::uint32_t got[3] = {};
        m.block_read(got, base, sizeof got);
      },
      "reader");
  m.run();
  EXPECT_EQ(an.races_total(), 1u) << an.report();
  ASSERT_EQ(an.races().size(), 1u);
  EXPECT_EQ(an.races()[0].object, "blk");
}

// Freeing the back half of a written block splits its shadow segment: the
// freed words start clean for their next owner, the kept words still
// remember the write.
TEST(RangeShadow, PartialFreeSplitsASegment) {
  Machine m(butterfly1(2));
  Analyzer an(m);
  chrys::Kernel k(m);
  const sim::PhysAddr base = m.alloc(0, 16);
  m.label_memory(base, 16, "blk");
  k.create_process(
      0,
      [&m, base] {
        const std::uint32_t words[4] = {1, 2, 3, 4};
        m.block_write(base, words, sizeof words);
        m.free(sim::PhysAddr{0, base.offset + 8}, 8);
      },
      "first");
  sim::PhysAddr reused{};
  k.create_process(
      1,
      [&m, &k, &reused, base] {
        k.delay(5 * sim::kMillisecond);
        reused = m.alloc(0, 8);  // first fit: the freed back half
        const std::uint32_t words[2] = {5, 6};
        m.block_write(reused, words, sizeof words);
        (void)m.read<std::uint32_t>(sim::PhysAddr{0, base.offset + 4});
      },
      "second");
  m.run();
  EXPECT_EQ(reused, (sim::PhysAddr{0, base.offset + 8}));
  EXPECT_EQ(an.races_total(), 1u) << an.report();
  ASSERT_EQ(an.races().size(), 1u);
  EXPECT_EQ(an.races()[0].object, "blk+4");
}

// --- Golden report ---------------------------------------------------------------

// The whole report() of a run with many races and hot words, pinned byte
// for byte: connected components without its documented suppression (52
// racy words, listed in detection order), and hot-word thresholds low
// enough to list four words, two of them tied on occupancy (ties print in
// address order).  The text was captured from the per-word detector that
// range shadow state replaced.
TEST(GoldenReport, UnsuppressedConnectedComponents) {
  Machine m(butterfly1(8));
  Analyzer::Options opt;
  opt.hot_occupancy = 0.0;
  opt.hot_min_remote_refs = 38;
  opt.max_races = 1000;
  Analyzer an(m, opt);
  const apps::Graph g = apps::Graph::random(60, 3, 77);
  (void)apps::connected_components(m, g, 8);
  EXPECT_EQ(an.report(), kGoldenCcReport);
}

}  // namespace
}  // namespace bfly::analyze
