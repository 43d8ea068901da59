#include <gtest/gtest.h>

#include "replay/instant_replay.hpp"
#include "replay/moviola.hpp"

namespace bfly::replay {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

// A deliberately racy workload: `actors` processes on different nodes take
// turns (in whatever order timing dictates) incrementing a shared counter
// through the CREW protocol.  The observable result is the ORDER in which
// actors' write sections executed — pure nondeterminism.
struct RacyRun {
  std::vector<std::uint32_t> order;  // actor per write section, in exec order
  Log log;
  Time elapsed = 0;
  std::uint64_t monitor_refs = 0;
  int fault_code = 0;
};

RacyRun run_racy(std::uint32_t actors, std::uint32_t rounds, Mode mode,
                 std::uint64_t jitter_seed, const Log* script = nullptr,
                 sim::FaultPlan plan = {}) {
  Machine m(butterfly1(8), std::move(plan));
  chrys::Kernel k(m);
  Monitor mon(k, actors);
  RacyRun out;
  const std::uint32_t obj = mon.register_object(0, "counter");
  mon.set_mode(mode);
  if (script != nullptr) mon.load_log(*script);

  sim::Rng jitter(jitter_seed);
  std::vector<sim::Time> delays;
  for (std::uint32_t i = 0; i < actors * rounds; ++i)
    delays.push_back((1 + jitter.below(40)) * 100 * sim::kMicrosecond);

  const Time t0 = 0;
  for (std::uint32_t a = 0; a < actors; ++a) {
    k.create_process(a % m.nodes(), [&, a] {
      for (std::uint32_t r = 0; r < rounds; ++r) {
        k.delay(delays[a * rounds + r]);
        const int code = k.catch_block([&] {
          mon.begin_write(a, obj);
          out.order.push_back(a);
          m.charge(500 * sim::kMicrosecond);  // the guarded work
          mon.end_write(a, obj);
        });
        if (code != chrys::kThrowNone) {
          out.fault_code = code;
          return;
        }
      }
    });
  }
  out.elapsed = m.run() - t0;
  out.log = mon.take_log();
  out.monitor_refs = mon.monitor_refs();
  return out;
}

TEST(InstantReplay, TimingPerturbationChangesTheOrderWithoutReplay) {
  RacyRun a = run_racy(4, 6, Mode::kRecord, 1111);
  RacyRun b = run_racy(4, 6, Mode::kRecord, 9999);
  ASSERT_EQ(a.order.size(), b.order.size());
  EXPECT_NE(a.order, b.order)
      << "the workload must actually be nondeterministic for the replay "
         "test to mean anything";
}

TEST(InstantReplay, ReplayForcesTheRecordedOrder) {
  RacyRun rec = run_racy(4, 6, Mode::kRecord, 1111);
  // Re-run under completely different timing, driven by the log.
  RacyRun rep = run_racy(4, 6, Mode::kReplay, 9999, &rec.log);
  EXPECT_EQ(rep.order, rec.order)
      << "Instant Replay must reproduce the exact recorded interleaving";
  EXPECT_EQ(rep.fault_code, 0);
}

TEST(InstantReplay, ReplayIsStableUnderManyPerturbations) {
  RacyRun rec = run_racy(3, 5, Mode::kRecord, 42);
  for (std::uint64_t seed : {7u, 77u, 777u, 7777u}) {
    RacyRun rep = run_racy(3, 5, Mode::kReplay, seed, &rec.log);
    EXPECT_EQ(rep.order, rec.order) << "seed " << seed;
  }
}

TEST(InstantReplay, LogHoldsOrderNotContent) {
  RacyRun rec = run_racy(4, 4, Mode::kRecord, 5);
  // 16 write sections -> 16 log entries of fixed size: O(events), not
  // O(data).  "Less time and space than other methods because the actual
  // information communicated between processes is not saved."
  EXPECT_EQ(rec.log.total_entries(), 16u);
}

TEST(InstantReplay, MonitoringOverheadIsAFewPercent) {
  RacyRun off = run_racy(4, 8, Mode::kOff, 33);
  RacyRun rec = run_racy(4, 8, Mode::kRecord, 33);
  ASSERT_GT(off.elapsed, 0u);
  const double overhead =
      (static_cast<double>(rec.elapsed) - static_cast<double>(off.elapsed)) /
      static_cast<double>(off.elapsed);
  EXPECT_LT(overhead, 0.20) << "monitoring should cost a few percent, got "
                            << overhead * 100 << "%";
  EXPECT_GT(rec.monitor_refs, 0u);
}

TEST(InstantReplay, DivergentExecutionIsDetected) {
  RacyRun rec = run_racy(2, 3, Mode::kRecord, 8);
  // Replay with MORE rounds than recorded: the log runs dry.
  RacyRun rep = run_racy(2, 5, Mode::kReplay, 8, &rec.log);
  EXPECT_EQ(rep.fault_code, chrys::kThrowReplayDiverged);
}

TEST(InstantReplay, ReadersAndWritersInterleaveCorrectly) {
  // CREW: concurrent readers allowed, writers exclusive, versions ordered.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  Monitor mon(k, 3);
  const std::uint32_t obj = mon.register_object(1, "cell");
  mon.set_mode(Mode::kRecord);
  const sim::PhysAddr cell = m.alloc(1, 8);
  m.poke<std::uint32_t>(cell, 0);
  std::vector<std::uint32_t> seen;
  // Writer bumps the cell twice; two readers read between writes.
  k.create_process(0, [&] {
    for (int i = 1; i <= 2; ++i) {
      mon.begin_write(0, obj);
      m.write<std::uint32_t>(cell, i * 10);
      mon.end_write(0, obj);
      k.delay(10 * sim::kMillisecond);
    }
  });
  for (std::uint32_t a = 1; a <= 2; ++a) {
    k.create_process(a, [&, a] {
      k.delay(3 * sim::kMillisecond);
      mon.begin_read(a, obj);
      seen.push_back(m.read<std::uint32_t>(cell));
      mon.end_read(a, obj);
    });
  }
  m.run();
  ASSERT_FALSE(m.deadlocked());
  ASSERT_EQ(seen.size(), 2u);
  for (std::uint32_t v : seen) EXPECT_TRUE(v == 10u || v == 20u);
  Log log = mon.take_log();
  EXPECT_EQ(log.total_entries(), 4u);
}

// Entry-by-entry log equality: byte-identical in every recorded field.
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

TEST(InstantReplay, FaultPlanWithZeroProbsKeepsRecordingDeterministic) {
  // A FaultPlan whose probabilistic faults are all zero — here it only
  // kills node 7, which hosts no actor and no monitored object — must not
  // perturb determinism: two same-seed record runs produce byte-identical
  // logs, orders, and elapsed times.
  sim::FaultPlan plan;
  plan.mem_fault_prob = 0.0;
  plan.kill(7, 10 * sim::kMillisecond);
  RacyRun a = run_racy(4, 6, Mode::kRecord, 1111, nullptr, plan);
  RacyRun b = run_racy(4, 6, Mode::kRecord, 1111, nullptr, plan);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.fault_code, 0);
  expect_logs_identical(a.log, b.log);
}

TEST(InstantReplay, EmptyFaultPlanIsByteIdenticalToNoPlan) {
  // The acceptance bar for the fault machinery: constructing the machine
  // with a default FaultPlan must leave the run bit-for-bit unchanged.
  RacyRun plain = run_racy(4, 6, Mode::kRecord, 2222);
  RacyRun planned = run_racy(4, 6, Mode::kRecord, 2222, nullptr,
                             sim::FaultPlan{});
  EXPECT_EQ(plain.order, planned.order);
  EXPECT_EQ(plain.elapsed, planned.elapsed);
  expect_logs_identical(plain.log, planned.log);
}

TEST(InstantReplay, ReplayStillForcesOrderUnderAFaultPlan) {
  // Record clean, replay on a machine whose unused node dies mid-run: the
  // recorded interleaving must still be enforced on the survivors.
  RacyRun rec = run_racy(4, 6, Mode::kRecord, 1111);
  sim::FaultPlan plan;
  plan.kill(7, 10 * sim::kMillisecond);
  RacyRun rep = run_racy(4, 6, Mode::kReplay, 9999, &rec.log, plan);
  EXPECT_EQ(rep.order, rec.order);
  EXPECT_EQ(rep.fault_code, 0);
}

TEST(Moviola, BuildsThePartialOrder) {
  RacyRun rec = run_racy(3, 4, Mode::kRecord, 2);
  Moviola mv(rec.log);
  EXPECT_EQ(mv.events().size(), 12u);
  EXPECT_GT(mv.cross_actor_edges(), 0u)
      << "writes to one object must order across actors";
  // All 12 writes hit one object: the dependence chain covers every event.
  EXPECT_EQ(mv.critical_path(), 12u);
  const std::string dot = mv.to_dot();
  EXPECT_NE(dot.find("digraph moviola"), std::string::npos);
  EXPECT_NE(dot.find("W(counter"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Moviola, IndependentObjectsGiveShortCriticalPath) {
  // Two actors writing DISJOINT objects: no cross edges, path = own chain.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  Monitor mon(k, 2);
  const std::uint32_t o0 = mon.register_object(0, "a");
  const std::uint32_t o1 = mon.register_object(1, "b");
  mon.set_mode(Mode::kRecord);
  for (std::uint32_t a = 0; a < 2; ++a) {
    k.create_process(a, [&, a] {
      const std::uint32_t obj = a == 0 ? o0 : o1;
      for (int r = 0; r < 5; ++r) {
        mon.begin_write(a, obj);
        m.charge(sim::kMillisecond);
        mon.end_write(a, obj);
      }
    });
  }
  m.run();
  Log log = mon.take_log();
  Moviola mv(log);
  EXPECT_EQ(mv.events().size(), 10u);
  EXPECT_EQ(mv.critical_path(), 5u);
}

TEST(Moviola, BottleneckFinderPicksTheHotObject) {
  // Two objects: one written 9 times, one written 3 times — the hot one is
  // the serialization bottleneck.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  Monitor mon(k, 2);
  const std::uint32_t hot = mon.register_object(0, "hot");
  const std::uint32_t cold = mon.register_object(1, "cold");
  mon.set_mode(Mode::kRecord);
  k.create_process(0, [&] {
    for (int i = 0; i < 9; ++i) {
      mon.begin_write(0, hot);
      m.charge(sim::kMillisecond);
      mon.end_write(0, hot);
    }
  });
  k.create_process(1, [&] {
    for (int i = 0; i < 3; ++i) {
      mon.begin_write(1, cold);
      m.charge(sim::kMillisecond);
      mon.end_write(1, cold);
    }
  });
  m.run();
  Log log = mon.take_log();
  Moviola mv(log);
  const Moviola::Bottleneck b = mv.bottleneck();
  EXPECT_EQ(b.name, "hot");
  EXPECT_EQ(b.chain, 9u);
  const auto per_actor = mv.events_per_actor();
  EXPECT_EQ(per_actor, (std::vector<std::uint32_t>{9, 3}));
}

}  // namespace
}  // namespace bfly::replay
