// TSERVING — replicated serving under faults: latency, goodput, hedging.
//
// The paper's Butterfly was "rarely fully operational": any long-lived
// service on the machine had to answer through dead and half-dead nodes.
// bfly::serve layers N-way replication, deadlines, retries, hedging and
// admission control over Bridge; this bench quantifies the whole stack with
// an open-loop Poisson client population (latency is measured from each
// request's *scheduled* arrival, so coordinated omission cannot hide
// queueing):
//
//   part 1 (load):   p50/p99/p999 response time and goodput swept over
//                    offered load on a healthy cluster.  Past saturation,
//                    admission control sheds instead of collapsing: goodput
//                    plateaus and p99 stays bounded by the queue limit.
//   part 2 (kills):  a fixed offered load while 0, 1, or 4 of the 8 server
//                    nodes are killed *silently* mid-run.  Suspicion routes
//                    around the corpses, repair re-replicates in the
//                    background.  After the window every block is read back
//                    as in part 4.  Gate: goodput with 4 kills stays >= 70%
//                    of the fault-free run, no request outlives its
//                    deadline budget, and no acknowledged write is lost.
//   part 3 (gray):   one server turns slow-but-alive (heartbeats unaffected,
//                    service stretched 12x).  Hedged reads escape to another
//                    replica past a latency-quantile trigger.  Gate: hedged
//                    read p999 beats unhedged by >= 2x.
//   part 4 (overload): 3000 ops/s, past saturation, on seeds 1, 1988 and
//                    404.  Admission control sheds write arms, so some
//                    writes commit on fewer replicas than were asked.  After
//                    the window every block is read, resync_block()ed and
//                    read again; the second read must return the block's
//                    last acked write or one concurrent with it.  Gate:
//                    zero lost acknowledged writes.
//
// Fully deterministic: fixed fault plans, seeded arrival/jitter PRNGs,
// simulated time.  Output: human tables, one JSON line per run, and the
// whole row set again in BENCH_serving.json.  Exits nonzero when a gate
// fails.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serving_common.hpp"
#include "sim/json.hpp"

using namespace bfly;

namespace {

using bench::fill_block;
using bench::pct_ms;
using bench::readback_ok;
using bench::WriteSeen;

constexpr std::uint32_t kServers = 8;
constexpr std::uint32_t kFiles = 4;
constexpr std::uint32_t kBlocksPerFile = 16;
constexpr std::uint32_t kWorkers = 64;
// Workload start: setup (file seeding, daemon + worker creation) happens
// before this instant, so the fault plan's absolute times land at fixed
// offsets into the measurement window and the measured ops never overlap
// the expensive serialized process-creation phase.
const sim::Time kWarm = 1500 * sim::kMillisecond;

serve::ServeConfig serving_config(bool hedge) {
  serve::ServeConfig cfg;
  cfg.hedge_reads = hedge;
  // Healthy service is ~3 ms, so floor the hedge trigger just above it and
  // let the running p90 estimate take over once it has samples.
  cfg.hedge_floor = 5 * sim::kMillisecond;
  return cfg;
}

struct Scenario {
  const char* part;     // "load" | "kills" | "gray"
  double offered;       // total offered load, ops per simulated second
  sim::Time duration;   // measurement window
  std::uint32_t kills;  // silent kills of server nodes 1,3,5,7 mid-run
  double slow_factor;   // 0 = healthy; else gray-fail node 2 by this factor
  bool hedge;
  std::uint64_t seed;
  bool audit = false;   // read every block back after the window
};

struct RunResult {
  sim::Time elapsed = 0;
  sim::Time setup = 0;      // workload start (>= kWarm unless setup overran)
  sim::Time worst_svc = 0;  // worst issue-to-return service time
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t sheds = 0;
  std::uint64_t noreplica = 0;
  std::vector<sim::Time> resp;       // scheduled-arrival to completion
  std::vector<sim::Time> read_resp;  // reads only (hedging's jurisdiction)
  std::vector<sim::Time> write_resp;
  std::uint64_t readback_blocks = 0;
  std::uint64_t readback_stale = 0;  // first read-any missed the last write
  std::uint64_t readback_lost = 0;   // still missing after resync_block
  serve::ServeCounters counters;
  std::uint64_t suspects = 0;
  std::string fault_json;
  std::string serve_json;  // final counters, read with fault_json
  bool deadlocked = true;
};

RunResult run_serving(const Scenario& sc) {
  sim::FaultPlan plan;
  for (std::uint32_t i = 0; i < sc.kills; ++i)
    plan.kill_silent(1 + 2 * i, kWarm + sim::kSecond +
                                    i * 500 * sim::kMillisecond);
  if (sc.slow_factor > 0)
    plan.slow(2, kWarm + 800 * sim::kMillisecond, 1000 * sim::kSecond,
              sc.slow_factor);
  sim::Machine m(sim::butterfly1(16), plan);
  chrys::Kernel k(m);
  RunResult r;
  std::uint32_t workers_done = 0;
  std::uint64_t last_tag = 0;
  std::vector<std::vector<WriteSeen>> writes(kFiles * kBlocksPerFile);

  k.create_process(15, [&] {
    // ~3 ms service per server: the 8-server cluster saturates around 2.2k
    // ops/s with the 90/10 read/write mix — reachable by the load sweep.
    bridge::BridgeFs fs(k, kServers, bench::serving_disk());
    {
      rescue::Membership mem(k, bench::serving_detector());
      serve::ReplicatedFs rfs(k, fs, nullptr, serving_config(sc.hedge));
      bridge::FileId files[kFiles];
      std::vector<std::uint8_t> blk;
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        files[f] = rfs.open("serve" + std::to_string(f), kBlocksPerFile);
        for (std::uint32_t b = 0; b < kBlocksPerFile; ++b) {
          fill_block(blk, f, b, 0);
          rfs.write(files[f], b, blk.data());
        }
      }
      mem.start();
      rfs.start_repair(13);
      // Create the client population *before* the measurement clock starts:
      // process creation is a multi-millisecond serialized charge per worker,
      // and workers spawned after kWarm would begin with scheduled arrivals
      // already in the past — a thundering herd that poisons every
      // percentile.  Each worker parks until kWarm on its own.
      const sim::Time t_end = kWarm + sc.duration;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        k.create_process(8 + w % 8, [&, w] {
          sim::Rng rng(sc.seed * 1000003ULL + w);
          std::vector<std::uint8_t> wblk, back(bridge::kBlockSize);
          const double mean_gap_s = kWorkers / sc.offered;
          if (m.now() < kWarm) k.delay(kWarm - m.now());
          sim::Time next = kWarm;
          for (;;) {
            next += bench::exp_gap(rng, mean_gap_s);
            if (next >= t_end) break;
            if (m.now() < next) k.delay(next - m.now());
            const std::uint32_t f = static_cast<std::uint32_t>(
                rng.below(kFiles));
            const std::uint32_t b = static_cast<std::uint32_t>(
                rng.below(kBlocksPerFile));
            const bool is_write = rng.below(10) == 0;
            const sim::Time issue = m.now();
            const std::uint64_t tag = is_write ? ++last_tag : 0;
            serve::Status st;
            if (is_write) {
              fill_block(wblk, f, b, tag);
              st = rfs.write(files[f], b, wblk.data());
            } else {
              st = rfs.read(files[f], b, back.data());
            }
            const sim::Time done = m.now();
            r.worst_svc = std::max(r.worst_svc, done - issue);
            r.resp.push_back(done - next);
            (is_write ? r.write_resp : r.read_resp).push_back(done - next);
            if (is_write)
              writes[f * kBlocksPerFile + b].push_back(
                  {tag, issue, done, st == serve::Status::kOk});
            switch (st) {
              case serve::Status::kOk: ++r.ok; break;
              case serve::Status::kTimeout: ++r.timeouts; break;
              case serve::Status::kShed: ++r.sheds; break;
              case serve::Status::kNoReplica: ++r.noreplica; break;
              // This bench's fault plans kill nodes but never cut the
              // switch, so quorum rejection cannot occur here.
              case serve::Status::kNoQuorum: ++r.noreplica; break;
            }
          }
          ++workers_done;
        });
      }
      // Pin the workload start so the fault plan's absolute times land at
      // fixed offsets into the measurement window.  Setup (seeding, daemons,
      // worker creation) must fit under kWarm or the run is invalid — the
      // setup_s field in the row would show the overrun.
      if (m.now() < kWarm) k.delay(kWarm - m.now());
      r.setup = m.now();
      while (workers_done < kWorkers) k.delay(20 * sim::kMillisecond);
      for (int i = 0; i < 1000 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      r.counters = rfs.counters();
      // The read-back: a read-any may land on a replica that missed the
      // last acked write (stale, reported); after resync_block the block
      // must return it or a write concurrent with it, else it is lost.
      std::vector<std::uint8_t> got(bridge::kBlockSize);
      const std::size_t audited = sc.audit ? writes.size() : 0;
      for (std::uint32_t blkno = 0; blkno < audited; ++blkno) {
        const std::uint32_t f = blkno / kBlocksPerFile;
        const std::uint32_t b = blkno % kBlocksPerFile;
        const auto returns_acked = [&] {
          return rfs.read(files[f], b, got.data()) == serve::Status::kOk &&
                 readback_ok(writes[blkno], got, f, b);
        };
        ++r.readback_blocks;
        if (!returns_acked()) ++r.readback_stale;
        rfs.resync_block(files[f], b);
        if (!returns_acked()) ++r.readback_lost;
      }
      mem.stop();
      rfs.stop_repair();
      for (int i = 0; i < 100 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      r.serve_json = rfs.counters().json();
    }
    fs.shutdown();
  });
  r.elapsed = m.run();
  r.deadlocked = m.deadlocked();
  r.suspects = m.stats().suspects_declared;
  r.fault_json = m.stats().fault_json();
  return r;
}

double goodput(const RunResult& r, const Scenario& sc) {
  return static_cast<double>(r.ok) / bench::seconds(sc.duration);
}

std::string row_json(const Scenario& sc, RunResult& r) {
  sim::json::Writer jw;
  jw.begin_object()
      .kv("bench", "tserving")
      .kv("part", sc.part)
      .kv("offered_per_s", sc.offered)
      .kv("duration_s", bench::seconds(sc.duration))
      .kv("kills", sc.kills)
      .kv("slow_factor", sc.slow_factor)
      .kv("hedge", sc.hedge)
      .kv("ops", static_cast<std::uint64_t>(r.resp.size()))
      .kv("ok", r.ok)
      .kv("timeouts", r.timeouts)
      .kv("sheds", r.sheds)
      .kv("noreplica", r.noreplica)
      .kv("goodput_per_s", goodput(r, sc))
      .kv("p50_ms", pct_ms(r.resp, 0.50))
      .kv("p99_ms", pct_ms(r.resp, 0.99))
      .kv("p999_ms", pct_ms(r.resp, 0.999))
      .kv("read_p999_ms", pct_ms(r.read_resp, 0.999))
      .kv("worst_svc_ms", bench::seconds(r.worst_svc) * 1e3)
      .kv("suspects", r.suspects)
      .kv("setup_s", bench::seconds(r.setup))
      .kv("elapsed_s", bench::seconds(r.elapsed));
  if (sc.audit) {
    jw.kv("seed", sc.seed)
        .kv("write_p99_ms", pct_ms(r.write_resp, 0.99))
        .kv("readback_blocks", r.readback_blocks)
        .kv("readback_stale", r.readback_stale)
        .kv("readback_lost", r.readback_lost);
  }
  jw.raw(r.fault_json).raw(r.serve_json).end_object();
  return jw.str();
}

void emit(bench::Report& report, const Scenario& sc, RunResult& r) {
  // Every run shares one validity condition: if setup spilled past kWarm the
  // window no longer lines up with the fault plan and the row is garbage.
  report.gate(r.setup == kWarm, "setup must finish inside the warmup window");
  std::printf("%6s %9.0f %6u %6.1f %6s %9.0f %8.1f %8.1f %8.1f %8.1f\n",
              sc.part, sc.offered, sc.kills, sc.slow_factor,
              sc.hedge ? "on" : "off", goodput(r, sc), pct_ms(r.resp, 0.50),
              pct_ms(r.resp, 0.99), pct_ms(r.resp, 0.999),
              bench::seconds(r.worst_svc) * 1e3);
  const std::string row = row_json(sc, r);
  std::printf("%s\n", row.c_str());
  report.row(row);
}

}  // namespace

int main() {
  const bool fast = bench::fast_mode();
  bench::Report report("tserving", "BENCH_serving.json");
  bench::header("TSERVING",
                "replicated serving: load, node kills, gray failure",
                "a serving layer on a rarely-fully-operational machine must "
                "degrade, not collapse");
  const sim::Time deadline = serve::ServeConfig{}.deadline;
  // Worst service time bound: the deadline plus the charges already in
  // flight when the budget expired.
  const sim::Time svc_bound = deadline + 100 * sim::kMillisecond;

  std::printf("\n16-node Butterfly, %u Bridge servers, 3 replicas, %u "
              "open-loop Poisson workers,\n90/10 read/write over %u blocks; "
              "latency from scheduled arrival (no coordinated omission)\n",
              kServers, kWorkers, kFiles * kBlocksPerFile);
  std::printf("\n%6s %9s %6s %6s %6s %9s %8s %8s %8s %8s\n", "part",
              "offered/s", "kills", "slow", "hedge", "goodput/s", "p50ms",
              "p99ms", "p999ms", "worstms");

  // --- part 1: load sweep, healthy cluster ---------------------------------
  const std::vector<double> loads =
      fast ? std::vector<double>{300, 1200, 2600}
           : std::vector<double>{200, 600, 1200, 2000, 3000};
  const sim::Time dur1 = (fast ? 2 : 3) * sim::kSecond;
  double low_load_goodput = 0, low_load = 0;
  for (const double offered : loads) {
    const Scenario sc{"load", offered, dur1, 0, 0.0, true, 11};
    RunResult r = run_serving(sc);
    report.gate(!r.deadlocked, "load run must not deadlock");
    if (low_load == 0) {
      low_load = offered;
      low_load_goodput = goodput(r, sc);
    }
    report.gate(r.worst_svc <= svc_bound,
                "load: request outlived its deadline");
    emit(report, sc, r);
  }
  report.gate(low_load_goodput >= 0.9 * low_load,
              "under light load, goodput must track offered load");

  // --- part 2: silent kills mid-run ----------------------------------------
  const double offered2 = fast ? 600 : 800;
  const sim::Time dur2 = (fast ? 4 : 5) * sim::kSecond;
  double faultfree_goodput = 0;
  for (const std::uint32_t kills : {0u, 1u, 4u}) {
    Scenario sc{"kills", offered2, dur2, kills, 0.0, true, 23};
    sc.audit = true;
    RunResult r = run_serving(sc);
    report.gate(!r.deadlocked, "kills run must not deadlock");
    report.gate(r.suspects == kills, "every silent kill must be suspected");
    report.gate(r.worst_svc <= svc_bound,
                "kills: request outlived its deadline");
    report.gate(r.counters.lost_blocks == 0, "no block may lose every replica");
    report.gate(r.readback_lost == 0,
                "kills: no acknowledged write may be lost");
    const double gp = goodput(r, sc);
    if (kills == 0) faultfree_goodput = gp;
    else
      report.gate(gp >= 0.70 * faultfree_goodput,
                  "goodput under kills must stay >= 70% of fault-free");
    if (kills > 0)
      report.gate(r.counters.rereplications > 0,
                  "kills must trigger re-replication");
    emit(report, sc, r);
  }

  // --- part 3: gray failure, hedged vs unhedged ----------------------------
  const double offered3 = fast ? 500 : 600;
  const sim::Time dur3 = (fast ? 5 : 8) * sim::kSecond / 2;  // 2.5 / 4 s
  double hedged_p999 = 0, unhedged_p999 = 0;
  for (const bool hedge : {true, false}) {
    const Scenario sc{"gray", offered3, dur3, 0, 12.0, hedge, 37};
    RunResult r = run_serving(sc);
    report.gate(!r.deadlocked, "gray run must not deadlock");
    report.gate(r.suspects == 0,
                "a gray failure must stay invisible to heartbeats");
    report.gate(r.worst_svc <= svc_bound,
                "gray: request outlived its deadline");
    const double p = pct_ms(r.read_resp, 0.999);
    if (hedge) {
      hedged_p999 = p;
      report.gate(r.counters.hedges > 0, "gray run must issue hedges");
      report.gate(r.counters.hedge_wins > 0,
                  "some hedges must beat the slow server");
    } else {
      unhedged_p999 = p;
    }
    emit(report, sc, r);
  }
  report.gate(
      hedged_p999 * 2.0 <= unhedged_p999,
      "hedged read p999 must beat unhedged by >= 2x under gray failure");

  // --- part 4: overload read-back audit ------------------------------------
  for (const std::uint64_t seed : {1u, 1988u, 404u}) {
    Scenario sc{"overload", 3000, dur1, 0, 0.0, true, seed};
    sc.audit = true;
    RunResult r = run_serving(sc);
    report.gate(!r.deadlocked, "overload run must not deadlock");
    report.gate(r.worst_svc <= svc_bound,
                "overload: request outlived its deadline");
    report.gate(r.readback_blocks == kFiles * kBlocksPerFile,
                "overload: every block must be read back");
    report.gate(r.readback_lost == 0,
                "overload: no acknowledged write may be lost");
    emit(report, sc, r);
  }

  return report.finish(
      "\nshape check: under capacity (~2.2k ops/s with this mix) goodput\n"
      "tracks offered load and p50 sits at the ~3.5 ms service time; past\n"
      "capacity the backlog grows and response time from scheduled arrival\n"
      "explodes, while issue-to-return service stays deadline-bounded and\n"
      "admission control sheds attempts; 4 silent kills keep >= 70% of\n"
      "fault-free goodput and lose no block and no acknowledged write; the\n"
      "gray-failed server is never suspected, yet hedged read p999 beats\n"
      "unhedged >= 2x; at 3000 ops/s no acknowledged write is lost to shed\n"
      "arms.\n");
}
