// The uncharged-instrumentation invariant for the wait-for graph: attaching
// a Detector must not perturb the simulated run at all.  Same harness as
// tests/analyze/uncharged_test.cpp — the Instant Replay racy workload's
// log records the exact interleaving, and the instrumented run's log must
// be field-by-field identical to the bare run's.
#include <gtest/gtest.h>

#include <memory>

#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"

namespace bfly::moviola {
namespace {

using replay::AccessEntry;
using replay::Log;
using replay::Mode;
using replay::Monitor;
using sim::butterfly1;
using sim::Machine;
using sim::Time;

struct RacyRun {
  std::vector<std::uint32_t> order;
  Log log;
  Time elapsed = 0;
  std::uint64_t monitor_refs = 0;
};

RacyRun run_racy(std::uint32_t actors, std::uint32_t rounds,
                 std::uint64_t jitter_seed, bool instrumented) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  std::unique_ptr<Detector> det;
  if (instrumented) det = std::make_unique<Detector>(m, &k);
  Monitor mon(k, actors);
  RacyRun out;
  const std::uint32_t obj = mon.register_object(0, "counter");
  mon.set_mode(Mode::kRecord);

  sim::Rng jitter(jitter_seed);
  std::vector<Time> delays;
  for (std::uint32_t i = 0; i < actors * rounds; ++i)
    delays.push_back((1 + jitter.below(40)) * 100 * sim::kMicrosecond);

  for (std::uint32_t a = 0; a < actors; ++a) {
    k.create_process(a % m.nodes(), [&, a] {
      for (std::uint32_t r = 0; r < rounds; ++r) {
        k.delay(delays[a * rounds + r]);
        mon.begin_write(a, obj);
        out.order.push_back(a);
        m.charge(500 * sim::kMicrosecond);
        mon.end_write(a, obj);
      }
    });
  }
  out.elapsed = m.run();
  out.log = mon.take_log();
  out.monitor_refs = mon.monitor_refs();
  if (det) {
    EXPECT_TRUE(det->analyze().empty()) << det->report();
    EXPECT_TRUE(det->lints().empty());
  }
  return out;
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

TEST(Uncharged, DetectorRunIsEventIdenticalToBare) {
  const RacyRun bare = run_racy(4, 6, 1111, /*instrumented=*/false);
  const RacyRun inst = run_racy(4, 6, 1111, /*instrumented=*/true);
  EXPECT_EQ(inst.order, bare.order);
  EXPECT_EQ(inst.elapsed, bare.elapsed);
  EXPECT_EQ(inst.monitor_refs, bare.monitor_refs);
  expect_logs_identical(inst.log, bare.log);
}

TEST(Uncharged, HoldsAcrossTimingSeeds) {
  for (const std::uint64_t seed : {7u, 777u, 31337u}) {
    const RacyRun bare = run_racy(3, 5, seed, /*instrumented=*/false);
    const RacyRun inst = run_racy(3, 5, seed, /*instrumented=*/true);
    EXPECT_EQ(inst.order, bare.order) << "seed " << seed;
    EXPECT_EQ(inst.elapsed, bare.elapsed) << "seed " << seed;
    expect_logs_identical(inst.log, bare.log);
  }
}

}  // namespace
}  // namespace bfly::moviola
