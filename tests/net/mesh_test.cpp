#include "net/mesh.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../render_stats.hpp"

namespace bfly::net {
namespace {

using sim::butterfly1;
using sim::Machine;

void with_creator(std::uint32_t nodes, std::function<void(chrys::Kernel&)> body) {
  Machine m(butterfly1(nodes));
  chrys::Kernel k(m);
  k.create_process(0, [&] { body(k); }, "creator");
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Mesh, LinePassesBytesEastward) {
  with_creator(8, [](chrys::Kernel& k) {
    std::uint32_t final_value = 0;
    Mesh mesh(k, 1, 5, [&](Element& e) {
      if (e.col() == 0) {
        e.out(Direction::kEast)->write_value<std::uint32_t>(100);
      } else {
        const auto v = e.in(Direction::kWest)->read_value<std::uint32_t>();
        if (e.out(Direction::kEast) != nullptr)
          e.out(Direction::kEast)->write_value<std::uint32_t>(v + 1);
        else
          final_value = v;
      }
    });
    mesh.join();
    EXPECT_EQ(final_value, 103u);
  });
}

TEST(Mesh, BoundariesAreNullWithoutWrap) {
  with_creator(8, [](chrys::Kernel& k) {
    bool corner_ok = false, middle_ok = false;
    Mesh mesh(k, 3, 3, [&](Element& e) {
      if (e.row() == 0 && e.col() == 0) {
        corner_ok = e.in(Direction::kNorth) == nullptr &&
                    e.out(Direction::kWest) == nullptr &&
                    e.out(Direction::kEast) != nullptr &&
                    e.out(Direction::kSouth) != nullptr;
      }
      if (e.row() == 1 && e.col() == 1) {
        middle_ok = e.out(Direction::kNorth) != nullptr &&
                    e.out(Direction::kSouth) != nullptr &&
                    e.out(Direction::kWest) != nullptr &&
                    e.out(Direction::kEast) != nullptr;
      }
    });
    mesh.join();
    EXPECT_TRUE(corner_ok);
    EXPECT_TRUE(middle_ok);
  });
}

TEST(Mesh, TorusWrapsBothWays) {
  with_creator(8, [](chrys::Kernel& k) {
    std::uint32_t hops = 0;
    MeshOptions opt;
    opt.wrap_rows = opt.wrap_cols = true;
    Mesh mesh(
        k, 2, 4,
        [&](Element& e) {
          // Token circulates the ring in row 0 and returns to origin.
          if (e.row() != 0) return;
          if (e.col() == 0) {
            e.out(Direction::kEast)->write_value<std::uint32_t>(1);
            hops = e.in(Direction::kWest)->read_value<std::uint32_t>();
          } else {
            const auto v = e.in(Direction::kWest)->read_value<std::uint32_t>();
            e.out(Direction::kEast)->write_value<std::uint32_t>(v + 1);
          }
        },
        opt);
    mesh.join();
    EXPECT_EQ(hops, 4u);
  });
}

TEST(Mesh, StreamsHaveNoMessageBoundaries) {
  with_creator(4, [](chrys::Kernel& k) {
    std::vector<std::uint8_t> got(6, 0);
    Mesh mesh(k, 1, 2, [&](Element& e) {
      if (e.col() == 0) {
        // Two writes...
        const std::uint8_t a[] = {1, 2, 3, 4};
        const std::uint8_t b[] = {5, 6};
        e.out(Direction::kEast)->write(a, 4);
        e.out(Direction::kEast)->write(b, 2);
      } else {
        // ...consumed by three reads of different sizes.
        e.in(Direction::kWest)->read(got.data(), 1);
        e.in(Direction::kWest)->read(got.data() + 1, 3);
        e.in(Direction::kWest)->read(got.data() + 4, 2);
      }
    });
    mesh.join();
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  });
}

TEST(Mesh, CylinderPipelineComputesRowSums) {
  // A 4x3 cylinder: each element adds its (row+col) to a westward-arriving
  // sum; column 0 elements start the wave.
  with_creator(16, [](chrys::Kernel& k) {
    std::vector<std::uint32_t> sums(4, 0);
    Mesh mesh(k, 4, 3, [&](Element& e) {
      std::uint32_t acc = e.row() * 10 + e.col();
      if (e.col() > 0) acc += e.in(Direction::kWest)->read_value<std::uint32_t>();
      if (e.out(Direction::kEast) != nullptr)
        e.out(Direction::kEast)->write_value<std::uint32_t>(acc);
      else
        sums[e.row()] = acc;
    });
    mesh.join();
    for (std::uint32_t r = 0; r < 4; ++r) EXPECT_EQ(sums[r], r * 30 + 3);
  });
}

TEST(Mesh, LargeTransfersArriveIntact) {
  with_creator(4, [](chrys::Kernel& k) {
    bool ok = false;
    Mesh mesh(k, 1, 2, [&](Element& e) {
      constexpr std::size_t kN = 10000;
      if (e.col() == 0) {
        std::vector<std::uint8_t> data(kN);
        for (std::size_t i = 0; i < kN; ++i)
          data[i] = static_cast<std::uint8_t>(i % 241);
        e.out(Direction::kEast)->write(data.data(), kN);
      } else {
        std::vector<std::uint8_t> data(kN, 0);
        e.in(Direction::kWest)->read(data.data(), kN);
        ok = true;
        for (std::size_t i = 0; i < kN; ++i)
          ok = ok && data[i] == static_cast<std::uint8_t>(i % 241);
      }
    });
    mesh.join();
    EXPECT_TRUE(ok);
  });
}

TEST(MeshFaults, ReadFromExitedPeerRaisesInsteadOfHanging) {
  // The writer element exits without ever writing; its reader must get a
  // broken-stream throw, not block forever.
  Machine m(sim::butterfly1(4));
  chrys::Kernel k(m);
  std::uint32_t err = 0;
  bool read_returned = false;
  k.create_process(0, [&] {
    Mesh mesh(k, 1, 2, [&](Element& e) {
      if (e.col() == 0) return;  // writer quits immediately
      std::uint32_t v = 0;
      err = k.catch_block(
          [&] { v = e.in(Direction::kWest)->read_value<std::uint32_t>(); });
      read_returned = true;
      (void)v;
    });
    mesh.join();
    EXPECT_EQ(mesh.elements_faulted(), 0u);  // the body caught it
    EXPECT_EQ(mesh.elements_lost(), 0u);
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_TRUE(read_returned);
  EXPECT_EQ(err, chrys::kThrowBrokenStream);
}

TEST(MeshFaults, DeadWriterNodeBreaksTheStreamAndJoinCompletes) {
  // Node 1 (the writer element's node) dies mid-run.  The reader gets a
  // broken-stream error, the mesh still joins, and nothing deadlocks.
  sim::FaultPlan plan;
  plan.kill(1, 20 * sim::kMillisecond);
  Machine m(sim::butterfly1(4), plan);
  chrys::Kernel k(m);
  std::uint32_t first = 0;
  k.create_process(0, [&] {
    MeshOptions opt;
    opt.base_node = 1;  // element (0,0) on node 1, element (0,1) on node 2
    Mesh mesh(
        k, 1, 2,
        [&](Element& e) {
          if (e.col() == 0) {
            // One value early, then die mid-delay before the second.
            e.out(Direction::kEast)->write_value<std::uint32_t>(7);
            k.delay(100 * sim::kMillisecond);
            e.out(Direction::kEast)->write_value<std::uint32_t>(8);
          } else {
            Stream* in = e.in(Direction::kWest);
            first = in->read_value<std::uint32_t>();
            (void)in->read_value<std::uint32_t>();  // writer dies: throws
          }
        },
        opt);
    mesh.join();
    EXPECT_EQ(mesh.elements_lost(), 1u);
    EXPECT_EQ(mesh.elements_faulted(), 1u);  // the reader's uncaught throw
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(first, 7u);
  EXPECT_FALSE(m.node_alive(1));
}

TEST(MeshFaults, KillLandingWhileTheReaderIsBlockedWakesIt) {
  // Regression for the blocked-at-the-moment-of-death window: the reader
  // is already parked inside read() when the writer's node dies.  The
  // crash broadcast must wake exactly that parked reader with a
  // broken-stream error on the next scheduler tick, not leave it hung.
  sim::FaultPlan plan;
  plan.kill(1, 20 * sim::kMillisecond);
  Machine m(sim::butterfly1(4), plan);
  chrys::Kernel k(m);
  std::uint32_t err = 0;
  sim::Time woke_at = 0;
  k.create_process(0, [&] {
    MeshOptions opt;
    opt.base_node = 1;  // writer on node 1, reader on node 2
    Mesh mesh(
        k, 1, 2,
        [&](Element& e) {
          if (e.col() == 0) {
            k.delay(100 * sim::kMillisecond);  // never writes; dies at 20 ms
            e.out(Direction::kEast)->write_value<std::uint32_t>(1);
          } else {
            err = k.catch_block([&] {
              std::uint32_t v =
                  e.in(Direction::kWest)->read_value<std::uint32_t>();
              (void)v;
            });
            woke_at = m.now();
          }
        },
        opt);
    mesh.join();
    EXPECT_EQ(mesh.elements_lost(), 1u);
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(err, chrys::kThrowBrokenStream);
  // Woken by the kill itself (not some later event): within a tick of it.
  EXPECT_GE(woke_at, 20 * sim::kMillisecond);
  EXPECT_LT(woke_at, 21 * sim::kMillisecond);
}

TEST(MeshFaults, SilentDeathWithoutABroadcastBlocksForever) {
  // Control for the detector tests: a *silent* kill posts no EOF and fires
  // no crash broadcast, so the reader waits forever and the run ends
  // deadlocked.  This is the hole rescue::Membership exists to close.
  sim::FaultPlan plan;
  plan.kill_silent(1, 20 * sim::kMillisecond);
  Machine m(sim::butterfly1(4), plan);
  chrys::Kernel k(m);
  k.create_process(0, [&] {
    MeshOptions opt;
    opt.base_node = 1;
    Mesh mesh(
        k, 1, 2,
        [&](Element& e) {
          if (e.col() == 0) {
            k.delay(100 * sim::kMillisecond);
            e.out(Direction::kEast)->write_value<std::uint32_t>(1);
          } else {
            (void)e.in(Direction::kWest)->read_value<std::uint32_t>();
          }
        },
        opt);
    mesh.join();
  });
  m.run();
  EXPECT_TRUE(m.deadlocked());
}

TEST(MeshFaults, KillDuringConstructionCostsOnlyThatElement) {
  // Node 1 dies while the mesh is still being built: the elements homed
  // there are written off (their streams get EOF, join() gets their
  // tokens) and construction completes for everyone else.
  sim::FaultPlan plan;
  plan.kill(1, 1);  // effectively before any element process can start
  Machine m(sim::butterfly1(4), plan);
  chrys::Kernel k(m);
  std::uint32_t reader_err = 0;
  k.create_process(0, [&] {
    MeshOptions opt;
    opt.base_node = 1;
    Mesh mesh(
        k, 1, 2,
        [&](Element& e) {
          if (e.col() == 0) {
            e.out(Direction::kEast)->write_value<std::uint32_t>(1);
          } else {
            reader_err = k.catch_block([&] {
              (void)e.in(Direction::kWest)->read_value<std::uint32_t>();
            });
          }
        },
        opt);
    mesh.join();
    EXPECT_EQ(mesh.elements_lost(), 1u);
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(reader_err, chrys::kThrowBrokenStream);
}

TEST(MeshFaults, BytesBufferedBeforeTheBreakAreStillReadable) {
  Machine m(sim::butterfly1(4));
  chrys::Kernel k(m);
  std::vector<std::uint8_t> got;
  std::uint32_t err = 0;
  k.create_process(0, [&] {
    Mesh mesh(k, 1, 2, [&](Element& e) {
      if (e.col() == 0) {
        const std::uint8_t data[] = {9, 8, 7};
        e.out(Direction::kEast)->write(data, 3);  // then exit
      } else {
        Stream* in = e.in(Direction::kWest);
        std::uint8_t buf[3] = {};
        in->read(buf, 3);  // delivered bytes arrive fine
        got.assign(buf, buf + 3);
        err = k.catch_block([&] {
          std::uint8_t more = 0;
          in->read(&more, 1);  // past the end: broken
        });
        EXPECT_TRUE(in->broken());
      }
    });
    mesh.join();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(err, chrys::kThrowBrokenStream);
}

TEST(MeshFaults, TransientFaultsStillDeliverBytesInOrder) {
  // Every chunk's block write and block read may fault; the stream retries
  // the transfer, so a four-element pipeline still delivers every byte in
  // order.  Pinned: the run's end time and every node's accounting.
  sim::FaultPlan plan;
  plan.mem_fault_prob = 0.05;
  plan.seed = 15;
  Machine m(butterfly1(8), plan);
  chrys::Kernel k(m);
  constexpr std::uint32_t kChunks = 200;
  constexpr std::size_t kLen = 16;
  std::vector<std::uint8_t> got;
  k.create_process(0, [&] {
    Mesh mesh(k, 1, 4, [&](Element& e) {
      std::vector<std::uint8_t> buf(kLen);
      for (std::uint32_t c = 0; c < kChunks; ++c) {
        if (e.col() == 0) {
          for (std::size_t i = 0; i < kLen; ++i)
            buf[i] = static_cast<std::uint8_t>((c * kLen + i) % 251);
        } else {
          e.in(Direction::kWest)->read(buf.data(), kLen);
        }
        if (e.out(Direction::kEast) != nullptr)
          e.out(Direction::kEast)->write(buf.data(), kLen);
        else
          got.insert(got.end(), buf.begin(), buf.end());
      }
    });
    mesh.join();
    EXPECT_EQ(mesh.elements_faulted(), 0u);
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  ASSERT_EQ(got.size(), kChunks * kLen);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i % 251)) << "byte " << i;
  EXPECT_EQ("now=" + std::to_string(m.now()) +
                " faults=" + std::to_string(m.stats().mem_faults_injected) +
                "; " + test::render_stats(m.stats()),
            "now=51462400 faults=56; "
            "n0{remote=211 stall=1350800 queue=400 block=844} "
            "n1{local=203 remote=213 serviced=211 stall=2351900 queue=14300 "
            "block=1664} "
            "n2{local=207 remote=212 serviced=213 stall=2359800 queue=9400 "
            "block=1676} "
            "n3{local=210 serviced=212 stall=1008000 block=840}");
}

}  // namespace
}  // namespace bfly::net
