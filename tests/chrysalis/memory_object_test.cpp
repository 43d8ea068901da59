#include <gtest/gtest.h>

#include "chrysalis/kernel.hpp"

namespace bfly::chrys {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

TEST(MemoryObject, RoundsUpToStandardSizes) {
  Machine m(butterfly1(2));
  Kernel k(m);
  std::size_t wasted_live = 0;
  k.create_process(0, [&] {
    Oid a = k.make_memory_object(0, 100);
    EXPECT_EQ(k.memobj_size(a), 256u);
    Oid b = k.make_memory_object(0, 5000);
    EXPECT_EQ(k.memobj_size(b), 8192u);
    Oid c = k.make_memory_object(0, 64 * 1024);
    EXPECT_EQ(k.memobj_size(c), 64u * 1024);
    wasted_live = k.wasted_bytes();
  });
  m.run();
  EXPECT_EQ(wasted_live, (256u - 100) + (8192u - 5000));
  EXPECT_EQ(k.wasted_bytes(), 0u) << "reclamation returns the fragments";
}

TEST(MemoryObject, OversizeThrows) {
  Machine m(butterfly1(2));
  Kernel k(m);
  int code = 0;
  k.create_process(0, [&] {
    code = k.catch_block([&] { (void)k.make_memory_object(0, 65537); });
  });
  m.run();
  EXPECT_EQ(code, kThrowOutOfMemory);
}

TEST(MemoryObject, MapUnmapCostsOverOneMillisecond) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Time map_cost = 0, unmap_cost = 0;
  k.create_process(0, [&] {
    Oid mo = k.make_memory_object(1, 4096);
    Time t0 = m.now();
    const std::uint32_t seg = k.map_object(mo);
    map_cost = m.now() - t0;
    t0 = m.now();
    k.unmap_segment(seg);
    unmap_cost = m.now() - t0;
  });
  m.run();
  EXPECT_GT(map_cost, sim::kMillisecond);
  EXPECT_GT(unmap_cost, sim::kMillisecond);
}

TEST(MemoryObject, VirtualAccessThroughSegments) {
  Machine m(butterfly1(4));
  Kernel k(m);
  std::uint32_t got = 0;
  k.create_process(0, [&] {
    Oid mo = k.make_memory_object(2, 4096);  // remote memory
    const std::uint32_t seg = k.map_object(mo);
    k.vwrite<std::uint32_t>(VirtAddr(seg, 128), 0xfeed);
    got = k.vread<std::uint32_t>(VirtAddr(seg, 128));
  });
  m.run();
  EXPECT_EQ(got, 0xfeedu);
}

TEST(MemoryObject, UnmappedSegmentFaults) {
  Machine m(butterfly1(2));
  Kernel k(m);
  int code = 0;
  k.create_process(0, [&] {
    code = k.catch_block(
        [&] { (void)k.vread<std::uint32_t>(VirtAddr(3, 0)); });
  });
  m.run();
  EXPECT_EQ(code, kThrowSegmentFault);
}

TEST(MemoryObject, OffsetBeyondObjectFaults) {
  Machine m(butterfly1(2));
  Kernel k(m);
  int code = 0;
  k.create_process(0, [&] {
    Oid mo = k.make_memory_object(0, 256);
    const std::uint32_t seg = k.map_object(mo);
    code = k.catch_block(
        [&] { (void)k.vread<std::uint32_t>(VirtAddr(seg, 300)); });
  });
  m.run();
  EXPECT_EQ(code, kThrowSegmentFault);
}

TEST(MemoryObject, AddressSpaceLimit) {
  // A process with an 8-SAR block can map at most 8 objects.
  Machine m(butterfly1(2));
  Kernel k(m);
  int mapped = 0, code = 0;
  k.create_process(
      0,
      [&] {
        for (int i = 0; i < 9; ++i) {
          Oid mo = k.make_memory_object(0, 256);
          code = k.catch_block([&] {
            (void)k.map_object(mo);
            ++mapped;
          });
          if (code != kThrowNone) break;
        }
      },
      "small", 8);
  m.run();
  EXPECT_EQ(mapped, 8);
  EXPECT_EQ(code, kThrowAddressSpaceFull);
}

TEST(ObjectModel, DeletingParentReclaimsChildren) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid mo = kNoObject;
  k.create_process(0, [&] {
    mo = k.make_memory_object(0, 1024);
    // Process exits; its subsidiary memory object must be reclaimed.
  });
  m.run();
  EXPECT_FALSE(k.object_alive(mo));
  EXPECT_EQ(k.live_bytes(), 0u);
}

TEST(ObjectModel, SystemOwnedObjectsLeak) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid mo = kNoObject;
  k.create_process(0, [&] {
    mo = k.make_memory_object(0, 1024);
    k.give_to_system(mo);
  });
  m.run();
  EXPECT_TRUE(k.object_alive(mo)) << "system-owned objects survive their creator";
  EXPECT_EQ(k.leaked_bytes(), 1024u) << "Chrysalis tends to leak storage";
}

TEST(ObjectModel, LeaksAreChargedToEachCreatorAtItsExit) {
  Machine m(butterfly1(2));
  Kernel k(m);
  std::size_t leaked_while_b_runs = 0;
  k.create_process(0, [&] {
    k.give_to_system(k.make_memory_object(0, 1024));
    (void)k.make_memory_object(0, 512);  // owned: reclaimed at exit
  }, "a");
  k.create_process(1, [&] {
    k.give_to_system(k.make_memory_object(1, 4096));
    const Oid dropped = k.make_memory_object(1, 256);
    k.give_to_system(dropped);
    k.delete_object(dropped);  // deleted before its creator exits
    k.delay(50 * sim::kMillisecond);  // "a" exits meanwhile
    leaked_while_b_runs = k.leaked_bytes();
  }, "b");
  m.run();
  EXPECT_EQ(leaked_while_b_runs, 1024u) << "only the exited creator's leak";
  EXPECT_EQ(k.leaked_bytes(), 1024u + 4096u);
  EXPECT_EQ(k.live_bytes(), 1024u + 4096u);
}

TEST(ObjectModel, DeletedOidsAreNeverReused) {
  Machine m(butterfly1(2));
  Kernel k(m);
  const Oid a = k.make_memory_object(0, 256);
  k.delete_object(a);
  const Oid b = k.make_memory_object(0, 256);
  EXPECT_GT(b, a);
  EXPECT_FALSE(k.object_alive(a));
  EXPECT_TRUE(k.object_alive(b));
  EXPECT_FALSE(k.object_alive(b + 1));
  EXPECT_FALSE(k.object_alive(kNoObject));
  for (const Oid bad : {kNoObject, a, b + 1}) {
    try {
      (void)k.object_kind(bad);
      ADD_FAILURE() << "object_kind(" << bad << ") did not throw";
    } catch (const ThrowSignal& t) {
      EXPECT_EQ(t.code, kThrowBadObject);
      EXPECT_EQ(t.datum, bad);
    }
  }
  k.delete_object(a);  // deleting twice is a no-op
  EXPECT_EQ(k.object_kind(b), ObjKind::kMemoryObject);
}

TEST(ObjectModel, ExplicitDeleteFreesMemory) {
  Machine m(butterfly1(2));
  Kernel k(m);
  k.create_process(0, [&] {
    Oid mo = k.make_memory_object(0, 2048);
    EXPECT_EQ(k.live_bytes(), 2048u);
    k.delete_object(mo);
    EXPECT_EQ(k.live_bytes(), 0u);
    EXPECT_FALSE(k.object_alive(mo));
  });
  m.run();
}

TEST(ObjectModel, SixteenMegabyteAddressSpaceCeiling) {
  // 256 segments x 64 KB = 16 MB: the paper's complaint that only 16 MB of
  // the machine's 1 GB physical memory is addressable by one process.  The
  // segment size is whatever VirtAddr's offset field can span.
  Machine m(butterfly1(2));
  const std::size_t segment_bytes =
      static_cast<std::size_t>(VirtAddr(0, ~0u).offset()) + 1;
  EXPECT_EQ(segment_bytes, 64u * 1024);
  const std::size_t max_addressable =
      static_cast<std::size_t>(m.config().max_segments_per_process) *
      segment_bytes;
  EXPECT_EQ(max_addressable, 16u * 1024 * 1024);
}

}  // namespace
}  // namespace bfly::chrys
