// The gauss, observed and serve workloads.  See README.md for why each
// exists and which layers it loads.

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "analyze/analyze.hpp"
#include "apps/gauss.hpp"
#include "bridge/bridge.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "rescue/rescue.hpp"
#include "scope/scope.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace bfly;

namespace {

// --- gauss ------------------------------------------------------------------

/// The Fig-5 machine: 128-node Butterfly-I with the 4 MB memory boards
/// (N=384 rows plus in-flight message buffers exceed the stock 1 MB on the
/// gather node).
sim::MachineConfig fig5_machine() {
  sim::MachineConfig mc = sim::butterfly1(128);
  mc.memory_per_node = 4u << 20;
  return mc;
}

Deltas machine_counters(sim::Machine& m) {
  const sim::HostPerf hp = m.host_perf();
  return {{"events", static_cast<std::int64_t>(hp.events_dispatched)},
          {"fiber_resumes", static_cast<std::int64_t>(hp.fiber_resumes)},
          {"fastpath_charges", static_cast<std::int64_t>(hp.fastpath_charges)},
          {"local_refs", static_cast<std::int64_t>(m.stats().total_local_refs())},
          {"remote_refs",
           static_cast<std::int64_t>(m.stats().total_remote_refs())}};
}

/// Runs one solve on `m` (already constructed; `setup_s` is its cost) and
/// fills the simulated and host results.
Solve solve_on(sim::Machine& m, bool smp, const GaussSpec& spec,
               std::uint32_t procs, const std::vector<double>& reference,
               SpanLog* spans, double setup_s) {
  apps::GaussConfig cfg;
  cfg.n = spec.n;
  cfg.processors = procs;
  cfg.seed = spec.system_seed;
  Solve s;
  s.smp = smp;
  s.procs = procs;
  s.setup_s = setup_s;
  apps::GaussResult r;
  {
    SpanScope span(spans, "apps", smp ? "apps::gauss_smp" : "apps::gauss_us",
                   m, [&m] { return machine_counters(m); });
    const auto t0 = Clock::now();
    const double c0 = thread_cpu_s();
    r = smp ? apps::gauss_smp(m, cfg) : apps::gauss_us(m, cfg);
    s.host_s = since(t0);
    s.cpu_s = thread_cpu_s() - c0;
  }
  s.elapsed = r.elapsed;
  s.messages = r.messages;
  s.queue_ns = m.stats().total_queue_ns();
  s.local_refs = m.stats().total_local_refs();
  s.remote_refs = m.stats().total_remote_refs();
  s.perf = m.host_perf();
  double err = r.solution.size() == reference.size() ? 0.0 : 1e300;
  for (std::size_t i = 0; i < reference.size() && i < r.solution.size(); ++i)
    err = std::max(err, std::fabs(r.solution[i] - reference[i]));
  s.error = err;
  return s;
}

}  // namespace

std::vector<Solve> run_gauss_pass(const GaussSpec& spec,
                                  const std::vector<double>& reference,
                                  SpanLog* spans) {
  std::vector<Solve> out;
  for (const std::uint32_t p : spec.procs) {
    for (const bool smp : {false, true}) {
      const auto t0 = Clock::now();
      sim::Machine m(fig5_machine());
      const double setup = since(t0);
      out.push_back(solve_on(m, smp, spec, p, reference, spans, setup));
    }
  }
  return out;
}

ObservedPass run_observed_pass(const GaussSpec& spec,
                               const std::vector<double>& reference,
                               SpanLog* spans) {
  ObservedPass out;
  const std::uint32_t p = spec.procs.front();
  {
    const auto t0 = Clock::now();
    sim::Machine m(fig5_machine());
    const double setup = since(t0);
    out.bare = solve_on(m, false, spec, p, reference, spans, setup);
  }
  {
    const auto t0 = Clock::now();
    sim::Machine m(fig5_machine());
    scope::Tracer tracer(m);
    analyze::Analyzer analyzer(m);
    moviola::Detector detector(m);
    const double setup = since(t0);
    out.observed = solve_on(m, false, spec, p, reference, spans, setup);
    out.scope_spans = tracer.spans_begun();
    out.scope_refs = tracer.references_seen();
    out.races = analyzer.races_total();
    out.blocked_at_end = detector.blocked_now();
    out.stuck_reports = detector.analyze().size();
  }
  return out;
}

// --- serve ------------------------------------------------------------------

namespace {

// The bench_tserving cluster: 8 Bridge servers with 3 replicas on a 16-node
// machine, 64 open-loop Poisson clients, a 90/10 read/write mix over 64
// blocks.  Set-up (seeding, daemons, client creation) ends at kWarm.
constexpr std::uint32_t kMachineNodes = 16;
constexpr std::uint32_t kServers = 8;
constexpr std::uint32_t kFiles = 4;
constexpr std::uint32_t kBlocksPerFile = 16;
constexpr std::uint32_t kWorkers = kServeClients;
constexpr sim::NodeId kOrchestratorNode = 15;
constexpr sim::NodeId kMonitorNode = 14;
constexpr sim::NodeId kRepairNode = 13;
const sim::Time kWarm = 1500 * sim::kMillisecond;

bridge::DiskParams serving_disk() {
  bridge::DiskParams d;
  d.seek_ns = 2 * sim::kMillisecond;
  d.block_transfer_ns = 1 * sim::kMillisecond;
  return d;
}

/// One scheduled request of the generated open-loop schedule.
struct Request {
  sim::Time at = 0;
  std::uint32_t file = 0;
  std::uint32_t block = 0;
  bool write = false;
  std::uint64_t version = 0;  // unique content tag of a write (0 = seed data)
};

/// The arrival generator: per-worker Poisson schedules, each from its own
/// stream of the workload seed.  The layers under test only ever see the
/// requests this produces.
std::vector<std::vector<Request>> make_schedule(const ServeSpec& spec) {
  std::vector<std::vector<Request>> out(kWorkers);
  const double mean_gap_s = kWorkers / spec.offered;
  const sim::Time t_end = kWarm + spec.duration;
  std::uint64_t version = 0;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    sim::Rng rng(mix_seed(spec.seed, w));
    sim::Time next = kWarm;
    for (;;) {
      // Exponential gap, clamped so one unlucky draw cannot stall a worker
      // for the whole window.
      double g = -mean_gap_s * std::log(1.0 - rng.uniform());
      g = std::min(g, 50.0 * mean_gap_s);
      next += std::max<sim::Time>(
          static_cast<sim::Time>(g * static_cast<double>(sim::kSecond)),
          10 * sim::kMicrosecond);
      if (next >= t_end) break;
      Request r;
      r.at = next;
      r.file = static_cast<std::uint32_t>(rng.below(kFiles));
      r.block = static_cast<std::uint32_t>(rng.below(kBlocksPerFile));
      r.write = rng.below(10) == 0;
      if (r.write) r.version = ++version;
      out[w].push_back(r);
    }
  }
  return out;
}

/// Block content for (file, block, version): the version in the first
/// eight bytes, then a pattern tied to all three.
void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t f,
                std::uint32_t b, std::uint64_t version) {
  blk.assign(bridge::kBlockSize, 0);
  std::memcpy(blk.data(), &version, sizeof version);
  for (std::size_t i = sizeof version; i < blk.size(); ++i)
    blk[i] = static_cast<std::uint8_t>(
        (f * 131 + b * 37 + i * 11 + version * 7) % 251);
}

/// One write as the clients saw it, for the read-back check.
struct WriteSeen {
  std::uint64_t version = 0;
  sim::Time issue = 0;
  sim::Time done = 0;
  bool acked = false;
};

/// A block may read back a write w only if no acknowledged write was issued
/// after w returned (w is the last acknowledged write or concurrent with
/// it).  The seed content qualifies only while no write was acknowledged.
bool readback_ok(const std::vector<WriteSeen>& writes,
                 const std::vector<std::uint8_t>& got, std::uint32_t f,
                 std::uint32_t b) {
  std::uint64_t version = 0;
  std::memcpy(&version, got.data(), sizeof version);
  std::vector<std::uint8_t> want;
  fill_block(want, f, b, version);
  if (want != got) return false;
  sim::Time last_acked_issue = 0;
  bool any_acked = false;
  for (const WriteSeen& w : writes) {
    if (!w.acked) continue;
    any_acked = true;
    last_acked_issue = std::max(last_acked_issue, w.issue);
  }
  if (version == 0) return !any_acked;
  for (const WriteSeen& w : writes)
    if (w.version == version) return !any_acked || w.done >= last_acked_issue;
  return false;
}

Deltas serve_counters(const serve::ReplicatedFs& rfs) {
  const serve::ServeCounters& c = rfs.counters();
  return {{"retries", static_cast<std::int64_t>(c.retries)},
          {"hedges", static_cast<std::int64_t>(c.hedges)},
          {"hedge_wins", static_cast<std::int64_t>(c.hedge_wins)},
          {"sheds", static_cast<std::int64_t>(c.sheds)},
          {"timeouts", static_cast<std::int64_t>(c.timeouts)}};
}

/// The read-back check of one block after the window.  A read-any may land
/// on a replica that missed the last acknowledged write (stale); after
/// resync_block()'s majority vote the block must return its last
/// acknowledged write or one concurrent with it, else the write is lost.
void read_back(serve::ReplicatedFs& rfs, bridge::FileId file, std::uint32_t f,
               std::uint32_t b, const std::vector<WriteSeen>& writes,
               const ServeSpec& spec, ServeRun& r) {
  std::vector<std::uint8_t> got(bridge::kBlockSize);
  ++r.readback_blocks;
  if (rfs.read(file, b, got.data()) != serve::Status::kOk ||
      !readback_ok(writes, got, f, b))
    ++r.readback_stale;
  rfs.resync_block(file, b);
  const serve::Status st = rfs.read(file, b, got.data());
  if (st == serve::Status::kOk && readback_ok(writes, got, f, b)) return;
  ++r.readback_lost;
  std::uint64_t version = 0;
  std::memcpy(&version, got.data(), sizeof version);
  std::fprintf(stderr,
               "%s@%.0f: block %u/%u read status %d version %llu; writes "
               "(version issue_ns done_ns acked):",
               spec.phase, spec.offered, f, b, static_cast<int>(st),
               static_cast<unsigned long long>(version));
  for (const WriteSeen& w : writes)
    std::fprintf(stderr, " [%llu %llu %llu %d]",
                 static_cast<unsigned long long>(w.version),
                 static_cast<unsigned long long>(w.issue),
                 static_cast<unsigned long long>(w.done), w.acked);
  std::fprintf(stderr, "\n");
}

}  // namespace

double goodput_per_s(const ServeRun& r, const ServeSpec& spec) {
  return static_cast<double>(r.ok) / sim_seconds(spec.duration);
}

bool ladder_rate_ok(const ServeRun& r, const ServeSpec& spec) {
  return r.ok == r.issued &&
         quantile_ms(r.read_resp, 0.99) <= kLadderReadP99LimitMs &&
         goodput_per_s(r, spec) >= 0.95 * spec.offered;
}

ServeRun run_serve(const ServeSpec& spec, SpanLog* spans) {
  const std::vector<std::vector<Request>> schedule = make_schedule(spec);
  std::vector<std::vector<WriteSeen>> writes(kFiles * kBlocksPerFile);
  ServeRun r;

  const auto t_setup = Clock::now();
  Clock::time_point t_window{};
  Clock::time_point t_last_worker{};
  sim::Machine m(sim::butterfly1(kMachineNodes));
  chrys::Kernel k(m);
  // The serving stack is built inside the orchestrator process but owned
  // here, so it is torn down host-side after run() even if a process is
  // still blocked when the event queue drains.
  std::unique_ptr<bridge::BridgeFs> fs;
  std::unique_ptr<rescue::Membership> mem;
  std::unique_ptr<serve::ReplicatedFs> rfs;
  std::vector<bridge::FileId> files(kFiles);
  std::uint32_t workers_done = 0;

  k.create_process(kOrchestratorNode, [&] {
    {
      SpanScope span(spans, "bridge", "BridgeFs::BridgeFs", m);
      fs = std::make_unique<bridge::BridgeFs>(k, kServers, serving_disk());
    }
    rescue::RescueConfig rc;
    rc.monitor_node = kMonitorNode;  // watchdog off the serving nodes
    // Serving nodes run 3 ms non-preemptible disk charges that delay the
    // heartbeat daemons under load; 50 ms detection is still well under the
    // 400 ms request deadline.
    rc.heartbeat_period = 10 * sim::kMillisecond;
    rc.suspect_after = 50 * sim::kMillisecond;
    mem = std::make_unique<rescue::Membership>(k, rc);
    serve::ServeConfig sc;
    sc.hedge_floor = 5 * sim::kMillisecond;  // healthy service is ~3 ms
    rfs = std::make_unique<serve::ReplicatedFs>(k, *fs, mem.get(), sc);
    {
      SpanScope span(spans, "serve", "ReplicatedFs::open+seed", m);
      std::vector<std::uint8_t> blk;
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        files[f] = rfs->open("serve" + std::to_string(f), kBlocksPerFile);
        for (std::uint32_t b = 0; b < kBlocksPerFile; ++b) {
          fill_block(blk, f, b, 0);
          rfs->write(files[f], b, blk.data());
        }
      }
    }
    const std::uint64_t epoch0 = mem->epoch();
    {
      SpanScope span(spans, "rescue", "Membership::start", m);
      mem->start();
    }
    rfs->start_repair(kRepairNode);
    // Clients exist before the window opens: process creation is a
    // serialized multi-millisecond charge, and a client created late would
    // start with its first arrivals already in the past.
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      SpanScope span(spans, "chrysalis", "Kernel::create_process", m, [&k] {
        return Deltas{{"live_processes",
                       static_cast<std::int64_t>(k.live_processes())}};
      });
      k.create_process(8 + w % 8, [&, w] {
        serve::ReplicatedFs& fs_r = *rfs;
        std::vector<std::uint8_t> wblk;
        std::vector<std::uint8_t> back(bridge::kBlockSize);
        if (m.now() < kWarm) k.delay(kWarm - m.now());
        for (const Request& q : schedule[w]) {
          if (m.now() < q.at) k.delay(q.at - m.now());
          const sim::Time issue = m.now();
          serve::Status st;
          if (q.write) {
            fill_block(wblk, q.file, q.block, q.version);
            SpanScope span(spans, "serve", "ReplicatedFs::write", m,
                           [&fs_r] { return serve_counters(fs_r); });
            st = fs_r.write(files[q.file], q.block, wblk.data());
          } else {
            SpanScope span(spans, "serve", "ReplicatedFs::read", m,
                           [&fs_r] { return serve_counters(fs_r); });
            st = fs_r.read(files[q.file], q.block, back.data());
          }
          const sim::Time done = m.now();
          ++r.issued;
          r.late.push_back(issue - q.at);
          r.service.push_back(done - issue);
          (q.write ? r.write_resp : r.read_resp).push_back(done - q.at);
          if (q.write)
            writes[q.file * kBlocksPerFile + q.block].push_back(
                {q.version, issue, done, st == serve::Status::kOk});
          switch (st) {
            case serve::Status::kOk: ++r.ok; break;
            case serve::Status::kTimeout: ++r.timeouts; break;
            case serve::Status::kShed: ++r.sheds; break;
            case serve::Status::kNoReplica:
            case serve::Status::kNoQuorum: ++r.noreplica; break;
          }
        }
        if (++workers_done == kWorkers) t_last_worker = Clock::now();
      });
    }
    if (m.now() < kWarm) k.delay(kWarm - m.now());
    r.setup_end = m.now();
    t_window = Clock::now();
    const std::uint64_t disk0 = fs->disk_ops();
    r.live_processes = k.live_processes();
    while (workers_done < kWorkers) k.delay(20 * sim::kMillisecond);
    r.disk_ops = fs->disk_ops() - disk0;
    r.counters = rfs->counters();
    r.epoch_bumps = mem->epoch() - epoch0;
    for (int i = 0; i < 1000 && !rfs->repair_idle(); ++i)
      k.delay(10 * sim::kMillisecond);
    for (std::uint32_t f = 0; f < kFiles; ++f)
      for (std::uint32_t b = 0; b < kBlocksPerFile; ++b)
        read_back(*rfs, files[f], f, b, writes[f * kBlocksPerFile + b], spec,
                  r);
    {
      SpanScope span(spans, "rescue", "Membership::stop", m);
      mem->stop();
    }
    rfs->stop_repair();
    for (int i = 0; i < 100 && !rfs->repair_idle(); ++i)
      k.delay(10 * sim::kMillisecond);
    SpanScope span(spans, "bridge", "BridgeFs::shutdown", m);
    fs->shutdown();
  });
  r.elapsed = m.run();
  r.clients_done = workers_done;
  if (m.deadlocked()) {
    // Recorded, not gated: the window and the read-back are complete by
    // now, and a process wedged in teardown (so far only ever the
    // orchestrator inside BridgeFs::shutdown) does not change them.
    const auto blocked = k.blocked_processes();
    r.blocked_at_end = blocked.size();
    std::fprintf(stderr, "%s@%.0f: run ended with blocked processes:",
                 spec.phase, spec.offered);
    for (const chrys::Kernel::BlockedInfo& b : blocked)
      std::fprintf(stderr, " %s(waits on %u)", b.name.c_str(),
                   static_cast<unsigned>(b.waiting_on));
    std::fprintf(stderr, "\n");
  }
  // The one read of a rescue counter out of MachineStats: with no fault
  // injected, every suspicion the detector raises is a false one.
  r.false_suspects = m.stats().false_suspects;
  r.local_refs = m.stats().total_local_refs();
  r.remote_refs = m.stats().total_remote_refs();
  r.queue_ns = m.stats().total_queue_ns();
  r.perf = m.host_perf();
  r.setup_s = host_s(t_setup, t_window);
  r.host_s = host_s(t_window, t_last_worker);
  return r;
}

}  // namespace perfbench
