// The charge() switch-free fast path: legality and A/B equivalence at the
// raw-machine level.  (The app-level determinism suite — Gauss, sorts, SMP,
// Instant Replay log equality — lives in tests/integration.)
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

MachineConfig cfg_fast(std::uint32_t nodes, bool fast) {
  MachineConfig c = butterfly1(nodes);
  c.host_fastpath = fast;
  return c;
}

TEST(Fastpath, SoloFiberChargesWithoutContextSwitches) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) m.charge(10);
  });
  m.run();
  EXPECT_EQ(m.now(), 1000u);
  const HostPerf hp = m.host_perf();
  EXPECT_TRUE(hp.fastpath_enabled);
  EXPECT_EQ(hp.fastpath_charges, 100u);
  EXPECT_EQ(hp.fiber_resumes, 1u);       // the initial spawn resume only
  EXPECT_EQ(hp.events_dispatched, 1u);
}

TEST(Fastpath, DisabledByConfigTakesSlowPath) {
  Machine m(cfg_fast(4, false));
  m.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) m.charge(10);
  });
  m.run();
  EXPECT_EQ(m.now(), 1000u);  // simulated outcome identical
  const HostPerf hp = m.host_perf();
  EXPECT_FALSE(hp.fastpath_enabled);
  EXPECT_EQ(hp.fastpath_charges, 0u);
  EXPECT_EQ(hp.fiber_resumes, 101u);  // spawn + one per charge
}

TEST(Fastpath, StrictlyEarlierRequired_TiedEventRunsFirst) {
  // A pending event at exactly the fiber's resume time must win (it holds
  // the older sequence number), so charge() may not warp over it.
  Machine m(cfg_fast(4, true));
  std::vector<int> order;
  m.engine().post_at(10, [&] { order.push_back(1); });
  m.spawn(0, [&] {
    m.charge(10);  // resume would tie with the t=10 closure: slow path
    order.push_back(2);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.host_perf().fastpath_charges, 0u);
}

TEST(Fastpath, EarlierResumeWarpsOverLaterEvent) {
  Machine m(cfg_fast(4, true));
  std::vector<int> order;
  m.engine().post_at(100, [&] { order.push_back(2); });
  m.spawn(0, [&] {
    m.charge(10);  // strictly earlier than t=100: warp, no yield
    order.push_back(1);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(m.host_perf().fastpath_charges, 1u);
}

TEST(Fastpath, StopRequestForcesSlowPath) {
  // A fiber that stops the engine and then charges must actually stop: the
  // fast path may not warp past a requested stop.
  auto run_one = [](bool fast) {
    Machine m(cfg_fast(4, fast));
    bool resumed_after_stop = false;
    Fiber* f = m.spawn(0, [&] {
      m.engine().stop();
      m.charge(10);
      resumed_after_stop = true;
    });
    m.run();
    EXPECT_FALSE(resumed_after_stop);
    EXPECT_FALSE(f->finished());
    return m.engine().pending();
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

TEST(Fastpath, ObserverAttachDisablesFastPath) {
  struct NullObserver : Probe {};
  Machine m(cfg_fast(4, true));
  NullObserver obs;
  m.attach(&obs);
  m.spawn(0, [&] { m.charge(10); });
  m.run();
  EXPECT_EQ(m.host_perf().fastpath_charges, 0u);
}

// --- The probe list ---------------------------------------------------------

// Logs every callback it receives as "<tag>:<callback>" into a shared log.
class RecordingProbe final : public Probe {
 public:
  RecordingProbe(char tag, std::vector<std::string>& log)
      : tag_(tag), log_(log) {}
  void on_reference(Fiber*, NodeId, PhysAddr, std::uint32_t, MemOp, Time,
                    Time) override { note("reference"); }
  void on_spawn(Fiber*, Fiber*) override { note("spawn"); }
  void on_free(PhysAddr, std::size_t) override { note("free"); }
  void on_release(Fiber*, std::uint64_t) override { note("release"); }
  void on_acquire(Fiber*, std::uint64_t) override { note("acquire"); }
  void on_lock(Fiber*, std::uint64_t, bool) override { note("lock"); }
  void on_label(PhysAddr, std::size_t, const std::string&) override {
    note("label");
  }
  void on_block(Fiber*, std::uint64_t, WaitKind) override { note("block"); }
  void on_wake(Fiber*, std::uint64_t, WakeReason) override { note("wake"); }
  void on_post(Fiber*, std::uint64_t, PostOutcome) override { note("post"); }
  void on_spin(Fiber*, std::uint64_t) override { note("spin"); }
  void on_span_begin(Fiber*, NodeId, const char*, const char*,
                     std::uint64_t) override { note("span_begin"); }
  void on_span_end(Fiber*, NodeId) override { note("span_end"); }
  void on_instant(Fiber*, NodeId, const char*, const char*,
                  std::uint64_t) override { note("instant"); }

 private:
  void note(const char* what) { log_.push_back(std::string{tag_, ':'} + what); }
  char tag_;
  std::vector<std::string>& log_;
};

// Spawns a fiber that fires each of the 14 hooks once, and runs it.  The
// log order: the host spawn of that fiber, then the hooks in call order.
void run_every_hook(Machine& m, PhysAddr a) {
  m.spawn(0, [&m, a] {
    (void)m.read<std::uint32_t>(a);
    m.spawn(1, [] {});
    m.free(m.alloc(0, 8), 8);
    m.observe_release(chan_of(a));
    m.observe_acquire(chan_of(a));
    m.observe_lock(chan_of(a), true);
    m.label_memory(a, 4, "cell");
    m.observe_block(chan_of_oid(1), WaitKind::kEvent);
    m.observe_wake(chan_of_oid(1), WakeReason::kServed);
    m.observe_post(chan_of_oid(1), PostOutcome::kQueued);
    m.observe_spin(chan_of(a));
    m.trace_begin("test", "span");
    m.trace_end();
    m.trace_instant("test", "mark");
  });
  m.run();
}

// What run_every_hook logs with the probes tagged `tags` attached, in order.
std::vector<std::string> expected_log(const std::string& tags) {
  std::vector<std::string> out;
  for (const char* hook :
       {"spawn", "reference", "spawn", "free", "release", "acquire", "lock",
        "label", "block", "wake", "post", "spin", "span_begin", "span_end",
        "instant"})
    for (const char t : tags) out.push_back(std::string{t, ':'} + hook);
  return out;
}

TEST(Probes, EveryProbeSeesEveryCallbackInAttachOrder) {
  Machine m(cfg_fast(2, true));
  const PhysAddr a = m.alloc(0, 8);
  std::vector<std::string> log;
  RecordingProbe first('A', log);
  RecordingProbe second('B', log);
  m.attach(&first);
  m.attach(&second);
  run_every_hook(m, a);
  EXPECT_EQ(log, expected_log("AB"));

  // The remaining probe keeps receiving everything.
  log.clear();
  m.detach(&first);
  run_every_hook(m, a);
  EXPECT_EQ(log, expected_log("B"));
  EXPECT_EQ(m.host_perf().fastpath_charges, 0u);

  // With the list empty again, charges take the fast path again.
  log.clear();
  m.detach(&second);
  run_every_hook(m, a);
  EXPECT_TRUE(log.empty());
  EXPECT_GT(m.host_perf().fastpath_charges, 0u);
}

TEST(Fastpath, ContendedWorkloadIdenticalOnAndOff) {
  // Many fibers hammering one module: interleavings, stats, and final time
  // must be bit-identical with the fast path on and off.
  auto run_one = [](bool fast) {
    Machine m(cfg_fast(16, fast));
    PhysAddr a = m.alloc(3, 64);
    for (NodeId n = 0; n < 16; ++n) {
      m.spawn(n, [&m, a] {
        for (int i = 0; i < 20; ++i) {
          (void)m.fetch_add_u32(a, 1);
          m.charge(700);
        }
      });
    }
    const Time end = m.run();
    return std::tuple{end, m.peek<std::uint32_t>(a),
                      m.stats().total_queue_ns(),
                      m.stats().total_remote_refs()};
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

struct MeshOut {
  Time elapsed = 0;
  std::vector<std::uint8_t> memory;  // journals + counters + cells + blocks
  std::vector<std::uint64_t> stats;  // every NodeStats field, node by node
  std::uint64_t fastpath_charges = 0;
};

// 64 fibers, one per node, all hammering each other's counters, cells and
// block buffers with every reference kind, plus one cross-node park/wakeup.
MeshOut run_mesh(bool fast) {
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint32_t kRounds = 6;
  Machine m(cfg_fast(kNodes, fast));
  std::vector<PhysAddr> counter(kNodes), cell(kNodes), block(kNodes),
      journal(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    counter[n] = m.alloc(n, 8);
    cell[n] = m.alloc(n, 8);
    block[n] = m.alloc(n, 64);
    journal[n] = m.alloc(n, 4 * (kRounds + 2));
  }

  Fiber* sleeper = m.spawn_parked(0, [&] {
    m.poke<std::uint32_t>(journal[0].plus(4 * kRounds),
                          static_cast<std::uint32_t>(m.now() & 0xffffffffu));
  });

  for (std::uint32_t n = 0; n < kNodes; ++n) {
    m.spawn(n, [&, n] {
      std::uint32_t acc = n;
      for (std::uint32_t i = 0; i < kRounds; ++i) {
        m.charge(50 * ((n + i) % 9 + 1));
        acc ^= m.fetch_add_u32(counter[(n * 5 + i * 11) % kNodes], n + 1);
        acc += m.read<std::uint32_t>(cell[(n + i * 17) % kNodes]);
        m.write<std::uint32_t>(cell[n], acc + i);
        if (i == 2) {
          std::uint8_t buf[64];
          for (std::uint32_t j = 0; j < 64; ++j)
            buf[j] = static_cast<std::uint8_t>(acc + j);
          m.block_write(block[(n + 9) % kNodes], buf, 64);
        }
        if (i == 3) {
          std::uint8_t buf[64];
          m.block_read(buf, block[(n + 13) % kNodes], 64);
          acc += buf[0] + buf[63];
        }
        if (i == 4) m.block_copy(block[(n + 3) % kNodes], block[n], 64);
        m.access_words(cell[(n + i * 7) % kNodes], 3, /*write=*/i % 2 == 1);
        acc ^= m.fetch_or_u32(counter[(n + i) % kNodes], 1u << (n % 31));
        m.poke<std::uint32_t>(
            journal[n].plus(4 * i),
            acc ^ static_cast<std::uint32_t>(m.now() & 0xffffffffu));
      }
      if (n == kNodes - 1) {
        m.charge(2 * kMillisecond);  // sleeper is parked by now
        m.wakeup(sleeper);
      }
      m.charge(1000);
    });
  }

  MeshOut out;
  out.elapsed = m.run();
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    std::uint8_t buf[64];
    auto grab = [&](PhysAddr a, std::size_t bytes) {
      m.peek_bytes(buf, a, bytes);
      out.memory.insert(out.memory.end(), buf, buf + bytes);
    };
    grab(journal[n], 4 * (kRounds + 2));
    grab(counter[n], 8);
    grab(cell[n], 8);
    grab(block[n], 64);
  }
  for (const NodeStats& ns : m.stats().node)
    out.stats.insert(out.stats.end(),
                     {ns.local_refs, ns.remote_refs, ns.serviced_remote,
                      ns.stall_ns, ns.queue_ns, ns.compute_ns,
                      ns.block_words});
  out.fastpath_charges = m.host_perf().fastpath_charges;
  return out;
}

TEST(Fastpath, ContendedMeshIdenticalOnAndOff) {
  // Every reference kind under cross-node contention: elapsed time, memory
  // and per-node stats must be bit-identical with the fast path on and off.
  const MeshOut on = run_mesh(true);
  const MeshOut off = run_mesh(false);
  EXPECT_GT(on.fastpath_charges, 0u);  // the fast path actually fired
  EXPECT_EQ(off.fastpath_charges, 0u);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.memory, off.memory);
  EXPECT_EQ(on.stats, off.stats);
}

TEST(Fastpath, DeadlockDetectionUnaffected) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] {
    m.charge(100);  // fast path
    m.park();       // nobody will wake us
  });
  m.run();
  EXPECT_TRUE(m.deadlocked());
  ASSERT_EQ(m.blocked_fibers().size(), 1u);
}

TEST(Fastpath, SleepUntilUsesFastPath) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] { m.sleep_until(5000); });
  m.run();
  EXPECT_EQ(m.now(), 5000u);
  EXPECT_EQ(m.host_perf().fastpath_charges, 1u);
}

}  // namespace
}  // namespace bfly::sim
