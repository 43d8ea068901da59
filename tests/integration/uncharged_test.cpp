// The uncharged-instrumentation invariant, for every probe at once:
// attaching the tracer (bfly::scope), the race detector (bfly::analyze) or
// the wait-for graph (bfly::moviola), alone or all three together, must not
// perturb the simulated run at all, with the charge fast path on or off.
//
// One parameterized test covers the grid {no probe, each probe alone, all
// three} x MachineConfig::host_fastpath {on, off}.  Every cell runs
//   * the Instant Replay racy workload (the most timing-sensitive machinery
//     in the repo: its log records the exact interleaving) over four timing
//     seeds, and
//   * a Uniform System Gauss solve, where task spans, wait_idle barriers and
//     every memory reference flow through the probes,
// and must match the bare fast-path run field by field: the replay log, the
// simulated clock, and the Gauss result and counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "scope/scope.hpp"
#include "sim/rng.hpp"
#ifdef BFLY_HAVE_ANALYZE
#include "analyze/analyze.hpp"
#endif

namespace bfly {
namespace {

using replay::AccessEntry;
using replay::Log;
using replay::Mode;
using replay::Monitor;
using sim::Machine;
using sim::Time;

enum ProbeBit : unsigned {
  kTracer = 1u << 0,
  kAnalyzer = 1u << 1,
  kDetector = 1u << 2,
};

struct Cell {
  unsigned probes = 0;  // ProbeBit set
  bool fastpath = true;
};

std::string label(const Cell& c) {
  std::string name;
  if (c.probes == 0) name = "bare";
  if (c.probes & kTracer) name += "tracer";
  if (c.probes & kAnalyzer) name += name.empty() ? "analyzer" : "_analyzer";
  if (c.probes & kDetector) name += name.empty() ? "detector" : "_detector";
  return name + (c.fastpath ? "_fastpath_on" : "_fastpath_off");
}

std::string cell_name(const testing::TestParamInfo<Cell>& info) {
  return label(info.param);
}

void PrintTo(const Cell& c, std::ostream* os) { *os << label(c); }

std::vector<Cell> grid() {
  std::vector<unsigned> sets = {0, kTracer, kDetector, kTracer | kDetector};
#ifdef BFLY_HAVE_ANALYZE
  sets = {0, kTracer, kAnalyzer, kDetector, kTracer | kAnalyzer | kDetector};
#endif
  std::vector<Cell> out;
  for (const unsigned s : sets)
    for (const bool fast : {true, false}) out.push_back(Cell{s, fast});
  return out;
}

sim::MachineConfig machine_config(const Cell& c) {
  sim::MachineConfig mc = sim::butterfly1(8);
  mc.host_fastpath = c.fastpath;
  return mc;
}

/// The probes of one cell, attached to one machine.  The tracer and the
/// race detector attach before the workload creates any fiber (so the
/// analyzer sees every fork edge); the wait-for graph attaches once the
/// kernel it resolves objects through exists.
class Probes {
 public:
  Probes(Machine& m, unsigned set) : m_(m), set_(set) {
    if (set & kTracer) tracer_ = std::make_unique<scope::Tracer>(m);
#ifdef BFLY_HAVE_ANALYZE
    if (set & kAnalyzer) analyzer_ = std::make_unique<analyze::Analyzer>(m);
#endif
  }
  void attach_detector(chrys::Kernel* k) {
    if (set_ & kDetector) detector_ = std::make_unique<moviola::Detector>(m_, k);
  }
  /// Races the analyzer found (0 without one).
  std::uint64_t races() const {
#ifdef BFLY_HAVE_ANALYZE
    if (analyzer_) return analyzer_->races_total();
#endif
    return 0;
  }
  /// The attached probes really watched the run; the wait-for graph found
  /// nothing stuck.
  void expect_watched() {
    if (tracer_) {
      EXPECT_GT(tracer_->spans_begun(), 0u);  // the annotations fired
      EXPECT_GT(tracer_->references_seen(), 0u);
    }
    if (detector_) {
      EXPECT_TRUE(detector_->analyze().empty()) << detector_->report();
      EXPECT_TRUE(detector_->lints().empty());
    }
  }

 private:
  Machine& m_;
  unsigned set_;
  std::unique_ptr<scope::Tracer> tracer_;
#ifdef BFLY_HAVE_ANALYZE
  std::unique_ptr<analyze::Analyzer> analyzer_;
#endif
  std::unique_ptr<moviola::Detector> detector_;
};

struct RacyRun {
  std::vector<std::uint32_t> order;
  Log log;
  Time elapsed = 0;
  std::uint64_t monitor_refs = 0;
  std::uint64_t races = 0;
};

/// `actors` processes take turns writing one CREW-monitored counter after
/// seeded random delays; the monitor records the interleaving.
RacyRun run_racy(const Cell& cell, std::uint32_t actors, std::uint32_t rounds,
                 std::uint64_t jitter_seed) {
  Machine m(machine_config(cell));
  Probes probes(m, cell.probes);
  chrys::Kernel k(m);
  probes.attach_detector(&k);
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
  out.races = probes.races();
  probes.expect_watched();
  return out;
}

apps::GaussResult run_gauss(const Cell& cell) {
  apps::GaussConfig cfg;
  cfg.n = 32;
  cfg.processors = 8;
  Machine m(machine_config(cell));
  Probes probes(m, cell.probes);
  probes.attach_detector(nullptr);
  apps::GaussResult r = apps::gauss_us(m, cfg);
  probes.expect_watched();
  return r;
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

/// One racy workload under `cell` matches the same workload run bare.
void expect_racy_matches_bare(const Cell& cell, std::uint32_t actors,
                              std::uint32_t rounds, std::uint64_t seed) {
  SCOPED_TRACE("racy seed " + std::to_string(seed));
  const RacyRun want = run_racy(Cell{}, actors, rounds, seed);
  const RacyRun got = run_racy(cell, actors, rounds, seed);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.monitor_refs, want.monitor_refs);
  expect_logs_identical(got.log, want.log);
}

/// The three short timing-seed sweeps that follow the long racy run.
void expect_seeds_match_bare(const Cell& cell) {
  for (const std::uint64_t seed : {7u, 777u, 31337u})
    expect_racy_matches_bare(cell, 3, 5, seed);
}

/// A Uniform System Gauss solve under `cell` matches the bare solve.
void expect_gauss_matches_bare(const Cell& cell) {
  SCOPED_TRACE("gauss_us");
  const apps::GaussResult want = run_gauss(Cell{});
  const apps::GaussResult got = run_gauss(cell);
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.remote_refs, want.remote_refs);
  EXPECT_EQ(got.block_words, want.block_words);
  EXPECT_EQ(got.queue_ns, want.queue_ns);
  EXPECT_EQ(got.solution, want.solution);
}

class ProbeNeutrality : public testing::TestWithParam<Cell> {};

TEST_P(ProbeNeutrality, ReplayLogAndClockMatchBare) {
  expect_racy_matches_bare(GetParam(), 4, 6, 1111);
  expect_seeds_match_bare(GetParam());
  expect_gauss_matches_bare(GetParam());
}

INSTANTIATE_TEST_SUITE_P(ProbeSets, ProbeNeutrality, testing::ValuesIn(grid()),
                         cell_name);

// Single-probe entry points into the same harness, one per probe, so a
// failure names the probe at fault without decoding a grid cell.
TEST(ScopeUncharged, TracedRunIsEventIdenticalToBare) {
  expect_racy_matches_bare(Cell{kTracer, true}, 4, 6, 1111);
}

TEST(ScopeUncharged, HoldsAcrossTimingSeeds) {
  expect_seeds_match_bare(Cell{kTracer, true});
}

TEST(ScopeUncharged, GaussRunsIdenticalBareAndTraced) {
  expect_gauss_matches_bare(Cell{kTracer, true});
}

TEST(Uncharged, DetectorRunIsEventIdenticalToBare) {
  expect_racy_matches_bare(Cell{kDetector, true}, 4, 6, 1111);
}

TEST(Uncharged, HoldsAcrossTimingSeeds) {
  expect_seeds_match_bare(Cell{kDetector, true});
#ifdef BFLY_HAVE_ANALYZE
  expect_seeds_match_bare(Cell{kAnalyzer, true});
#endif
}

#ifdef BFLY_HAVE_ANALYZE
TEST(Uncharged, InstrumentedRunIsEventIdenticalToBare) {
  expect_racy_matches_bare(Cell{kAnalyzer, true}, 4, 6, 1111);
}

// The CREW monitor's shared words are either managed by PNC atomics (sync
// cells) or accessed under its spin lock: the race detector agrees.
TEST(Uncharged, MonitorProtocolItselfIsRaceFree) {
  const RacyRun run = run_racy(Cell{kAnalyzer, true}, 4, 6, 2222);
  EXPECT_GT(run.monitor_refs, 0u);
  EXPECT_EQ(run.races, 0u);
}
#endif

}  // namespace
}  // namespace bfly
