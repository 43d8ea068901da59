#include "smp/family.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace bfly::smp {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

// Boots a machine, runs `body` as the creating process, runs to completion.
void with_family_creator(std::uint32_t nodes, std::function<void(chrys::Kernel&)> body) {
  Machine m(butterfly1(nodes));
  chrys::Kernel k(m);
  k.create_process(0, [&] { body(k); }, "creator");
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Topology, Shapes) {
  Topology ring = Topology::ring(5);
  EXPECT_TRUE(ring.connected(0, 4));
  EXPECT_TRUE(ring.connected(2, 3));
  EXPECT_FALSE(ring.connected(0, 2));

  Topology tree = Topology::tree(7, 2);
  EXPECT_TRUE(tree.connected(0, 1));
  EXPECT_TRUE(tree.connected(1, 3));
  EXPECT_FALSE(tree.connected(3, 4));
  EXPECT_EQ(Topology::tree_parent(5), 2u);

  Topology torus = Topology::mesh(3, 4, true, true);
  EXPECT_TRUE(torus.connected(0, 3));   // column wrap
  EXPECT_TRUE(torus.connected(0, 8));   // row wrap
  EXPECT_TRUE(torus.connected(5, 6));

  Topology star = Topology::star(6);
  EXPECT_TRUE(star.connected(0, 5));
  EXPECT_FALSE(star.connected(1, 2));
}

TEST(Family, PingPong) {
  with_family_creator(4, [](chrys::Kernel& k) {
    std::uint32_t echoed = 0;
    Family fam(
        k, Topology::line(2),
        [&](Member& me) {
          if (me.index() == 0) {
            me.send_value<std::uint32_t>(1, 1, 0xc0ffee);
            Message r = me.receive();
            echoed = r.as<std::uint32_t>();
          } else {
            Message msg = me.receive();
            const auto v = msg.as<std::uint32_t>();
            me.send_value<std::uint32_t>(0, 2, v + 1);
          }
        });
    fam.join();
    EXPECT_EQ(echoed, 0xc0ffee + 1u);
    EXPECT_EQ(fam.messages_sent(), 2u);
  });
}

TEST(Family, NonNeighborSendThrows) {
  with_family_creator(4, [](chrys::Kernel& k) {
    int code = 0;
    Family fam(k, Topology::line(3), [&](Member& me) {
      if (me.index() == 0) {
        code = k.catch_block([&] { me.send_value<std::uint32_t>(2, 0, 1); });
      }
    });
    fam.join();
    EXPECT_EQ(code, chrys::kThrowNotConnected);
  });
}

TEST(Family, RingPassesTokenAround) {
  constexpr std::uint32_t kN = 8;
  with_family_creator(8, [](chrys::Kernel& k) {
    std::uint32_t final_sum = 0;
    Family fam(k, Topology::ring(kN), [&](Member& me) {
      const std::uint32_t next = (me.index() + 1) % kN;
      if (me.index() == 0) {
        me.send_value<std::uint32_t>(next, 0, 0);
        Message back = me.receive();
        final_sum = back.as<std::uint32_t>();
      } else {
        Message msg = me.receive();
        me.send_value<std::uint32_t>(next, 0, msg.as<std::uint32_t>() + me.index());
      }
    });
    fam.join();
    EXPECT_EQ(final_sum, (kN - 1) * kN / 2);
  });
}

TEST(Family, TreeReduction) {
  constexpr std::uint32_t kN = 15;
  with_family_creator(16, [](chrys::Kernel& k) {
    std::uint32_t total = 0;
    Family fam(k, Topology::tree(kN, 2), [&](Member& me) {
      std::uint32_t acc = me.index() + 1;  // value at this node
      for (std::uint32_t c : me.children()) {
        (void)c;
        Message msg = me.receive();
        acc += msg.as<std::uint32_t>();
      }
      if (me.index() == 0) total = acc;
      else me.send_value<std::uint32_t>(me.parent(), 0, acc);
    });
    fam.join();
    EXPECT_EQ(total, kN * (kN + 1) / 2);
  });
}

TEST(Family, LargePayloadsArriveIntact) {
  with_family_creator(4, [](chrys::Kernel& k) {
    bool ok = false;
    Family fam(k, Topology::line(2), [&](Member& me) {
      if (me.index() == 0) {
        std::vector<std::uint8_t> data(4096);
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = static_cast<std::uint8_t>(i % 251);
        me.send(1, 7, data.data(), data.size());
      } else {
        Message msg = me.receive();
        ok = msg.tag == 7 && msg.payload.size() == 4096;
        for (std::size_t i = 0; ok && i < msg.payload.size(); ++i)
          ok = msg.payload[i] == static_cast<std::uint8_t>(i % 251);
      }
    });
    fam.join();
    EXPECT_TRUE(ok);
  });
}

TEST(Family, FixedAllocationMapsMembersToNodes) {
  with_family_creator(4, [](chrys::Kernel& k) {
    std::vector<sim::NodeId> where(6, 999);
    FamilyOptions opt;
    opt.base_node = 2;
    Family fam(
        k, Topology::complete(6),
        [&](Member& me) { where[me.index()] = me.node(); }, opt);
    fam.join();
    for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(where[i], (2 + i) % 4);
  });
}

TEST(Family, TryReceiveDoesNotBlock) {
  with_family_creator(4, [](chrys::Kernel& k) {
    bool was_empty = false, got_later = false;
    Family fam(k, Topology::line(2), [&](Member& me) {
      if (me.index() == 1) {
        Message msg;
        was_empty = !me.try_receive(&msg);
        while (!me.try_receive(&msg)) k.delay(sim::kMillisecond);
        got_later = msg.as<std::uint32_t>() == 5;
      } else {
        k.delay(10 * sim::kMillisecond);
        me.send_value<std::uint32_t>(1, 0, 5);
      }
    });
    fam.join();
    EXPECT_TRUE(was_empty);
    EXPECT_TRUE(got_later);
  });
}

TEST(Family, ReceiveAndTryReceiveDeliverPayloadsByteForByte) {
  // Both receive paths, a 1-byte, a 4097-byte and a zero-length payload.
  // try_receive reuses one Message, so the zero-length receive after the
  // long one must leave it empty.
  const std::vector<std::size_t> lens = {1, 4097, 0};
  auto pattern = [](std::size_t len) {
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
      v[i] = static_cast<std::uint8_t>(i * 37 + 11);
    return v;
  };
  with_family_creator(4, [&](chrys::Kernel& k) {
    std::vector<std::vector<std::uint8_t>> by_receive, by_try;
    Family fam(k, Topology::line(2), [&](Member& me) {
      if (me.index() == 0) {
        for (int round = 0; round < 2; ++round)
          for (std::size_t len : lens) {
            const std::vector<std::uint8_t> data = pattern(len);
            me.send(1, static_cast<std::uint32_t>(len), data.data(), len);
          }
        return;
      }
      for (std::size_t len : lens) {
        const Message msg = me.receive();
        EXPECT_EQ(msg.tag, len);
        by_receive.emplace_back(msg.payload.begin(), msg.payload.end());
      }
      Message msg;
      for (std::size_t len : lens) {
        while (!me.try_receive(&msg)) k.delay(sim::kMillisecond);
        EXPECT_EQ(msg.tag, len);
        by_try.emplace_back(msg.payload.begin(), msg.payload.end());
      }
    });
    fam.join();
    ASSERT_EQ(by_receive.size(), lens.size());
    ASSERT_EQ(by_try.size(), lens.size());
    for (std::size_t i = 0; i < lens.size(); ++i) {
      EXPECT_EQ(by_receive[i], pattern(lens[i])) << "receive, len " << lens[i];
      EXPECT_EQ(by_try[i], pattern(lens[i])) << "try_receive, len " << lens[i];
    }
    EXPECT_TRUE(by_receive.back().empty());
    EXPECT_TRUE(by_try.back().empty());
  });
}

TEST(SarCacheT, CacheAvoidsRemapCost) {
  // Repeated sends on one channel: with the cache only the first pays the
  // map; without it every send pays map + unmap.
  auto total_time = [](std::uint32_t cache_cap) {
    Machine m(butterfly1(4));
    chrys::Kernel k(m);
    Time t = 0;
    k.create_process(0, [&] {
      FamilyOptions opt;
      opt.sar_cache_capacity = cache_cap;
      Family fam(k, Topology::line(2), [&](Member& me) {
        if (me.index() == 0) {
          const Time t0 = k.machine().now();
          for (int i = 0; i < 20; ++i)
            me.send_value<std::uint32_t>(1, 0, i);
          t = k.machine().now() - t0;
        } else {
          for (int i = 0; i < 20; ++i) (void)me.receive();
        }
      }, opt);
      fam.join();
    });
    m.run();
    return t;
  };
  const Time cached = total_time(8);
  const Time uncached = total_time(0);
  EXPECT_LT(cached * 3, uncached)
      << "the SAR cache must amortize the ~1 ms map/unmap per message";
}

TEST(SarCacheT, EvictionWhenChannelsExceedCapacity) {
  Machine m(butterfly1(2));
  SarCache cache(m, 2, 4);
  Time spent = 0;
  m.spawn(0, [&] {
    cache.access(1);
    cache.access(2);
    cache.access(1);  // hit
    cache.access(3);  // evicts 2
    cache.access(2);  // miss again
    spent = m.now();
  });
  m.run();
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_GT(spent, 0u);
}

// The reference the slot LRU must agree with: the std::list LRU the cache
// was first written as.  access() and flush() return the simulated time
// the real cache must charge for the same call.
struct ListLru {
  std::uint32_t capacity;
  Time map_ns;
  std::list<std::uint32_t> lru;
  std::uint64_t hits = 0, misses = 0, evictions = 0;

  Time access(std::uint32_t slot) {
    if (capacity == 0) {
      ++misses;
      return 2 * map_ns;
    }
    auto it = std::find(lru.begin(), lru.end(), slot);
    if (it != lru.end()) {
      lru.splice(lru.begin(), lru, it);
      ++hits;
      return 0;
    }
    ++misses;
    Time cost = map_ns;
    if (lru.size() >= capacity) {
      lru.pop_back();
      cost += map_ns;
      ++evictions;
    }
    lru.push_front(slot);
    return cost;
  }
  Time flush() {
    const Time cost = lru.size() * map_ns;
    lru.clear();
    return cost;
  }
};

TEST(SarCacheT, SlotLruMatchesListLru) {
  constexpr std::uint32_t kSlots = 300;
  for (const std::uint32_t cap : {0u, 1u, 2u, 7u, 200u}) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    Machine m(butterfly1(2));
    SarCache cache(m, cap, kSlots);
    ListLru ref{cap, m.config().sar_map_ns, {}};
    m.spawn(0, [&] {
      std::mt19937 rng(cap + 1);
      // Half the accesses go to a hot set a little larger than the cache,
      // so every capacity sees hits, misses and evictions.
      std::uniform_int_distribution<std::uint32_t> hot(0, cap + 3);
      std::uniform_int_distribution<std::uint32_t> any(0, kSlots - 1);
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4000; ++i) {
          const std::uint32_t slot = (rng() & 1) != 0 ? hot(rng) : any(rng);
          const Time t0 = m.now();
          cache.access(slot);
          ASSERT_EQ(m.now() - t0, ref.access(slot)) << "access " << i;
        }
        const Time t0 = m.now();
        cache.flush();
        ASSERT_EQ(m.now() - t0, ref.flush()) << "flush " << round;
      }
    });
    m.run();
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.evictions(), ref.evictions);
    if (cap >= 2) {
      EXPECT_GT(ref.hits, 0u);
      EXPECT_GT(ref.evictions, 0u);
    }
  }
}

TEST(SarCacheT, SelfSendSharesOneSlot) {
  // Sending to yourself maps one buffer: the receive hits the mapping the
  // send made.
  with_family_creator(2, [](chrys::Kernel& k) {
    Topology self_loop(1);
    self_loop.add_edge(0, 0);
    std::uint64_t hits = 0, misses = 0;
    Family fam(k, self_loop, [&](Member& me) {
      me.send_value<std::uint32_t>(0, 0, 7);
      EXPECT_EQ(me.receive().as<std::uint32_t>(), 7u);
      hits = me.sar_cache().hits();
      misses = me.sar_cache().misses();
    });
    fam.join();
    EXPECT_EQ(misses, 1u);
    EXPECT_EQ(hits, 1u);
  });
}

// Collects the labels the runtimes give the memory they allocate.
class LabelProbe : public sim::Probe {
 public:
  void on_label(sim::PhysAddr /*a*/, std::size_t /*bytes*/,
                const std::string& name) override {
    labels.push_back(name);
  }
  std::vector<std::string> labels;
};

TEST(Family, MessageBuffersAreLabelledForAttachedProbes) {
  Machine m(butterfly1(4));
  LabelProbe probe;
  m.attach(&probe);
  chrys::Kernel k(m);
  k.create_process(0, [&] {
    Family fam(k, Topology::line(3), [&](Member& me) {
      if (me.index() == 0) {
        me.send_value<std::uint32_t>(1, 0, 1);
      } else if (me.index() == 2) {
        me.send_value<std::uint32_t>(1, 0, 2);
      } else {
        (void)me.receive();
        (void)me.receive();
        me.send(0, 0, nullptr, 0);  // no payload, no buffer, no label
      }
    });
    fam.join();
  });
  m.run();
  std::vector<std::string> smp;
  for (const std::string& l : probe.labels)
    if (l.rfind("SMP.", 0) == 0) smp.push_back(l);
  std::sort(smp.begin(), smp.end());
  EXPECT_EQ(smp, (std::vector<std::string>{"SMP.msg[0->1]", "SMP.msg[2->1]"}));
}

TEST(Family, ManyToOneFunnel) {
  // Star: all leaves report to the hub — the Gaussian elimination shape.
  constexpr std::uint32_t kN = 9;
  with_family_creator(16, [](chrys::Kernel& k) {
    std::uint32_t received = 0, sum = 0;
    Family fam(k, Topology::star(kN), [&](Member& me) {
      if (me.index() == 0) {
        for (std::uint32_t i = 1; i < kN; ++i) {
          Message msg = me.receive();
          ++received;
          sum += msg.as<std::uint32_t>();
        }
      } else {
        me.send_value<std::uint32_t>(0, 0, me.index());
      }
    });
    fam.join();
    EXPECT_EQ(received, kN - 1);
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
  });
}

// A member whose node is already dead when the family is built is lost
// from the start: the constructor returns instead of throwing out from
// under the members it has started, they run, and join() waits only for
// them.
TEST(FamilyFaults, MemberOnADeadNodeIsLostFromTheStart) {
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  m.kill_node(2, sim::kMillisecond);
  std::uint32_t ran = 0;
  bool joined = false;
  k.create_process(0, [&] {
    k.delay(2 * sim::kMillisecond);
    Family fam(k, Topology::ring(4), [&](Member& me) {
      if (me.size() == 4) ++ran;
    });
    fam.join();
    joined = true;
  }, "creator");
  m.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(ran, 3u);
  EXPECT_FALSE(m.deadlocked());
}

}  // namespace
}  // namespace bfly::smp
