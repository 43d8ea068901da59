// App-level proof that the charge() fast path is unobservable: every app
// run with the fast path on must be bit-for-bit identical — Instant Replay
// logs, full per-node Stats, final simulated time, and computed results —
// to the same run with cfg.host_fastpath = false (which forces every
// charge through the post/yield/resume slow path).  This is the strongest cross-check the repo has: the replay log
// records the exact interleaving of every monitored access, so a single
// reordered event anywhere in the run shows up as a log mismatch.
//
// The suite also runs under the ASan+UBSan preset (same binary, sanitized
// build), which shakes out lifetime bugs in the typed-event path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/sort.hpp"
#include "replay/instant_replay.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"
#include "sim/rng.hpp"

namespace bfly {
namespace {

using replay::AccessEntry;
using replay::Log;
using sim::butterfly1;
using sim::Machine;
using sim::MachineConfig;
using sim::MachineStats;
using sim::Time;

MachineConfig cfg_fast(std::uint32_t nodes, bool fast) {
  MachineConfig c = butterfly1(nodes);
  c.host_fastpath = fast;
  return c;
}

/// Every stats field of every node, serialized: two runs agree iff their
/// fingerprints match, and a mismatch names itself in the failure output.
std::string stats_fingerprint(const MachineStats& s) {
  sim::json::Writer w;
  w.begin_array();
  for (const auto& n : s.node) {
    w.begin_object()
        .kv("local", n.local_refs)
        .kv("remote", n.remote_refs)
        .kv("serviced", n.serviced_remote)
        .kv("stall", n.stall_ns)
        .kv("queue", n.queue_ns)
        .kv("compute", n.compute_ns)
        .kv("block_words", n.block_words)
        .end_object();
  }
  w.end_array();
  return w.take();
}

void expect_logs_identical(const Log& a, const Log& b) {
  ASSERT_EQ(a.per_actor.size(), b.per_actor.size());
  for (std::size_t i = 0; i < a.per_actor.size(); ++i) {
    ASSERT_EQ(a.per_actor[i].size(), b.per_actor[i].size()) << "actor " << i;
    for (std::size_t j = 0; j < a.per_actor[i].size(); ++j) {
      const AccessEntry& x = a.per_actor[i][j];
      const AccessEntry& y = b.per_actor[i][j];
      EXPECT_EQ(x.object, y.object) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.version, y.version) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.readers, y.readers) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.is_write, y.is_write) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.at, y.at) << "actor " << i << " entry " << j;
    }
  }
}

TEST(FastpathDeterminism, GaussUniformSystem) {
  apps::GaussConfig cfg;
  cfg.n = 32;
  cfg.processors = 8;

  Machine on(cfg_fast(8, true));
  const apps::GaussResult r_on = apps::gauss_us(on, cfg);
  Machine off(cfg_fast(8, false));
  const apps::GaussResult r_off = apps::gauss_us(off, cfg);

  EXPECT_GT(on.host_perf().fastpath_charges, 0u);
  EXPECT_EQ(off.host_perf().fastpath_charges, 0u);
  EXPECT_EQ(r_on.elapsed, r_off.elapsed);
  EXPECT_EQ(r_on.solution, r_off.solution);
  EXPECT_EQ(on.now(), off.now());
  EXPECT_EQ(stats_fingerprint(on.stats()), stats_fingerprint(off.stats()));
}

TEST(FastpathDeterminism, GaussMessagePassingSmp) {
  apps::GaussConfig cfg;
  cfg.n = 24;
  cfg.processors = 4;

  Machine on(cfg_fast(8, true));
  const apps::GaussResult r_on = apps::gauss_smp(on, cfg);
  Machine off(cfg_fast(8, false));
  const apps::GaussResult r_off = apps::gauss_smp(off, cfg);

  EXPECT_EQ(r_on.elapsed, r_off.elapsed);
  EXPECT_EQ(r_on.messages, r_off.messages);
  EXPECT_EQ(r_on.solution, r_off.solution);
  EXPECT_EQ(on.now(), off.now());
  EXPECT_EQ(stats_fingerprint(on.stats()), stats_fingerprint(off.stats()));
}

TEST(FastpathDeterminism, BitonicSortUniformSystem) {
  apps::SortConfig cfg;
  cfg.n = 256;
  cfg.processors = 8;

  Machine on(cfg_fast(8, true));
  const apps::SortResult r_on = apps::bitonic_sort(on, cfg);
  Machine off(cfg_fast(8, false));
  const apps::SortResult r_off = apps::bitonic_sort(off, cfg);

  EXPECT_EQ(r_on.elapsed, r_off.elapsed);
  EXPECT_EQ(r_on.keys, r_off.keys);
  EXPECT_EQ(on.now(), off.now());
  EXPECT_EQ(stats_fingerprint(on.stats()), stats_fingerprint(off.stats()));
}

TEST(FastpathDeterminism, OddEvenSortSmp) {
  apps::SortConfig cfg;
  cfg.n = 128;
  cfg.processors = 8;

  Machine on(cfg_fast(8, true));
  const apps::SortResult r_on = apps::odd_even_sort(on, cfg);
  Machine off(cfg_fast(8, false));
  const apps::SortResult r_off = apps::odd_even_sort(off, cfg);

  EXPECT_EQ(r_on.elapsed, r_off.elapsed);
  EXPECT_EQ(r_on.keys, r_off.keys);
  EXPECT_EQ(on.now(), off.now());
  EXPECT_EQ(stats_fingerprint(on.stats()), stats_fingerprint(off.stats()));
}

TEST(FastpathDeterminism, InstantReplayLogsIdentical) {
  // The racy Instant Replay workload from the uncharged harnesses: jittered
  // writers race for one monitored object, and the recorded log *is* the
  // interleaving.  Fast path on vs off must record the same history.
  auto run_racy = [](bool fast) {
    Machine m(cfg_fast(8, fast));
    chrys::Kernel k(m);
    replay::Monitor mon(k, 4);
    const std::uint32_t obj = mon.register_object(0, "counter");
    mon.set_mode(replay::Mode::kRecord);

    sim::Rng jitter(4242);
    std::vector<Time> delays;
    for (std::uint32_t i = 0; i < 4 * 6; ++i)
      delays.push_back((1 + jitter.below(40)) * 100 * sim::kMicrosecond);

    auto order = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint32_t a = 0; a < 4; ++a) {
      k.create_process(a % m.nodes(), [&m, &k, &mon, &delays, order, a, obj] {
        for (std::uint32_t r = 0; r < 6; ++r) {
          k.delay(delays[a * 6 + r]);
          mon.begin_write(a, obj);
          order->push_back(a);
          m.charge(500 * sim::kMicrosecond);
          mon.end_write(a, obj);
        }
      });
    }
    const Time elapsed = m.run();
    return std::tuple{*order, mon.take_log(), elapsed,
                      stats_fingerprint(m.stats())};
  };

  const auto [order_on, log_on, t_on, fp_on] = run_racy(true);
  const auto [order_off, log_off, t_off, fp_off] = run_racy(false);
  EXPECT_EQ(order_on, order_off);
  EXPECT_EQ(t_on, t_off);
  EXPECT_EQ(fp_on, fp_off);
  expect_logs_identical(log_on, log_off);
}

}  // namespace
}  // namespace bfly
