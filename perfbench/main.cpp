// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload gauss|serve|observed --seed N --seconds S
//             --trace 0|1 [--smoke] [--spans-out FILE]
//
// Runs one workload in this single host process, single-threaded, for
// about S host seconds of repeated passes, checks every output, and prints
// one JSON document as its last line of standard output: the workload's
// simulated results ("sim", byte-diffable across host-only changes), its
// substrate counts, its host timings, the checks, and the metrics.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// adds one traced pass, the layer ladder and the per-layer set.  run.py
// builds this program, adds provenance and prints the summary line.
// README.md lists every metric with the layer it belongs to.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bfly::sim::Time;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--spans-out") a.spans_out = value();
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload != "gauss" && a.workload != "serve" &&
      a.workload != "observed")
    throw std::runtime_error("--workload must be gauss, serve or observed");
  if (!have_seed) throw std::runtime_error("--seed is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Per-layer values -------------------------------------------------------

/// Every per-layer quantity of one workload.  Fields a workload does not
/// exercise stay zero: that layer does no work on it.
struct Layers {
  // sim
  std::uint64_t events = 0, fiber_resumes = 0, fastpath_charges = 0;
  std::uint64_t local_refs = 0, remote_refs = 0;
  Time queue_ns = 0;
  double sim_s = 0;
  // chrysalis, smp, bridge
  std::uint64_t live_processes = 0, smp_messages = 0, disk_ops = 0;
  // serve
  std::uint64_t retries = 0, hedges = 0, hedge_wins = 0, sheds = 0,
                timeouts = 0;
  double service_p99_ms = 0, gen_late_p99_ms = 0;
  double light_read_p99_ms = 0, heavy_read_p50_ms = 0, heavy_read_p99_ms = 0,
         heavy_write_p99_ms = 0, heavy_goodput = 0, max_rate = 0;
  std::uint64_t requests = 0;  // heavy-window requests
  std::uint64_t stale_blocks = 0;
  std::uint64_t ladder_lost_blocks = 0;  // summed over the ladder's rungs
  // rescue
  std::uint64_t false_suspects = 0, epoch_bumps = 0;
  std::uint64_t blocked_at_end_serve = 0;  // kernel processes, all runs
  // scope / analyze / moviola
  std::uint64_t scope_spans = 0, scope_refs = 0, races = 0, blocked_at_end = 0;
  double observe_overhead = 0;
};

void add_solve(Layers& l, const Solve& s) {
  l.events += s.perf.events_dispatched;
  l.fiber_resumes += s.perf.fiber_resumes;
  l.fastpath_charges += s.perf.fastpath_charges;
  l.local_refs += s.local_refs;
  l.remote_refs += s.remote_refs;
  l.queue_ns += s.queue_ns;
  l.sim_s += sim_seconds(s.elapsed);
  l.smp_messages += s.messages;
}

JsonObj solve_sim(const Solve& s) {
  JsonObj o;
  o.str("impl", s.smp ? "smp" : "us")
      .num("procs", static_cast<std::uint64_t>(s.procs))
      .num("elapsed_ns", static_cast<std::uint64_t>(s.elapsed))
      .num("max_abs_error", s.error)
      .num("messages", s.messages)
      .num("local_refs", s.local_refs)
      .num("remote_refs", s.remote_refs)
      .num("queue_ns", static_cast<std::uint64_t>(s.queue_ns));
  return o;
}

JsonObj perf_json(const bfly::sim::HostPerf& p) {
  JsonObj o;
  o.num("events", p.events_dispatched)
      .num("fiber_resumes", p.fiber_resumes)
      .num("fastpath_charges", p.fastpath_charges);
  return o;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    s += (i > 0 ? "," : "") + items[i];
  return s + "]";
}

/// How fast the host ran during a run: calibration chunks timed between
/// passes.  The end-to-end times are scaled to the reference speed, at
/// which a chunk takes kReferenceChunkS (the fastest chunk seen on the
/// 4-core development host), so that a host slowed down by other tenants
/// moves the chunks and the passes alike and the ratio stays put.
constexpr int kChunksPerPass = 6;
constexpr double kReferenceChunkS = 0.0144;

struct HostSpeed {
  double chunk_sum_s = 0;
  int chunks = 0;
  double scale() const {
    return chunks > 0 ? kReferenceChunkS * chunks / chunk_sum_s : 1.0;
  }
};

/// The outcome of one workload run, before metrics are chosen.
struct Outcome {
  JsonObj sim;        // simulated results (deterministic per seed)
  JsonObj substrate;  // host-side work counts (deterministic per seed)
  JsonObj host;       // host timings
  double host_s = 0;   // mean pass, at this run's host speed
  double setup_s = 0;  // median set-up, at this run's host speed
  int passes = 0;
  Layers layers;
  double layer_host_s = 0;  // host time of the work the layer counts cover
  double rss_mb = 0;        // peak resident memory after the first pass
  HostSpeed speed;
  // Traced pass, timed like the untraced one it repeats.
  double traced_host_s = 0;
  double plain_host_s = 0;
  std::size_t trace_spans = 0;
};

/// Repeats `pass` until `seconds` of host time have gone by (at least
/// `min_passes` times), timing calibration chunks before each pass.
/// Returns the number of passes run.
template <typename Pass>
int repeat_for(double seconds, int min_passes, HostSpeed& speed, Pass pass) {
  const auto t0 = Clock::now();
  int n = 0;
  while (n < min_passes || since(t0) < seconds) {
    for (int k = 0; k < kChunksPerPass; ++k) {
      speed.chunk_sum_s += calibration_chunk_s();
      ++speed.chunks;
    }
    pass(n++);
  }
  return n;
}

/// Host times of each component of a pass (one solve, one serving run's
/// window) over the run's passes.
class Timings {
 public:
  void add(std::size_t component, double s) {
    if (component >= v_.size()) v_.resize(component + 1);
    v_[component].push_back(s);
  }
  /// Sum over components of each one's fastest pass, the base of the
  /// per-layer host values: other tenants' load only ever slows a pass
  /// down.
  double best_sum() const {
    double t = 0;
    for (const auto& c : v_) t += *std::min_element(c.begin(), c.end());
    return t;
  }
  /// Mean over passes of the pass total.
  double mean_sum() const {
    double t = 0;
    for (const auto& c : v_)
      for (const double s : c) t += s / static_cast<double>(c.size());
    return t;
  }
  /// Median over passes of the pass total.
  double median_sum() const {
    std::vector<double> totals(v_.empty() ? 0 : v_[0].size(), 0.0);
    for (const auto& c : v_)
      for (std::size_t p = 0; p < c.size() && p < totals.size(); ++p)
        totals[p] += c[p];
    return median(totals);
  }

 private:
  std::vector<std::vector<double>> v_;
};

// --- gauss --------------------------------------------------------------------

constexpr std::uint64_t kGaussStream = 0x6a0555;
constexpr double kSolutionTolerance = 1e-6;

/// Fig-5 rows of bench_fig5_gauss at N=384, in simulated seconds.
struct Fig5Row {
  bool smp;
  std::uint32_t procs;
  double seconds;
};
constexpr Fig5Row kFig5[] = {
    {false, 16, 316.54}, {true, 16, 158.72}, {false, 128, 65.57},
    {true, 128, 103.67}};

GaussSpec gauss_spec(const Args& a) {
  GaussSpec s;
  s.n = a.smoke ? 96 : 384;
  s.system_seed = mix_seed(a.seed, kGaussStream);
  return s;
}

std::string gauss_sim_json(const std::vector<Solve>& solves) {
  std::vector<std::string> rows;
  double sim_s = 0;
  for (const Solve& s : solves) {
    rows.push_back(solve_sim(s).str());
    sim_s += sim_seconds(s.elapsed);
  }
  JsonObj o;
  o.raw("solves", json_array(rows)).num("sim_s", sim_s);
  return o.str();
}

std::string solves_perf_json(const std::vector<Solve>& solves) {
  std::vector<std::string> rows;
  for (const Solve& s : solves) rows.push_back(perf_json(s.perf).str());
  return json_array(rows);
}

void check_solves(const std::vector<Solve>& solves, Checks& c) {
  for (const Solve& s : solves)
    c.check(s.error < kSolutionTolerance,
            std::string("gauss_") + (s.smp ? "smp" : "us") + " P=" +
                std::to_string(s.procs) + " solution off by " +
                std::to_string(s.error));
}

Outcome run_gauss(const Args& a, Checks& c, SpanLog* spans) {
  const GaussSpec spec = gauss_spec(a);
  const std::vector<double> reference =
      bfly::apps::gauss_reference(spec.n, spec.system_seed);
  Outcome o;
  std::vector<Solve> first;
  std::string first_sim, first_perf;
  Timings solve_t, setup_t, cpu_t;
  o.passes = repeat_for(a.seconds, 3, o.speed, [&](int i) {
    std::vector<Solve> solves = run_gauss_pass(spec, reference, nullptr);
    if (i == 0) o.rss_mb = peak_rss_mb();
    for (std::size_t j = 0; j < solves.size(); ++j) {
      solve_t.add(j, solves[j].host_s);
      setup_t.add(j, solves[j].setup_s);
      cpu_t.add(j, solves[j].cpu_s);
    }
    check_solves(solves, c);
    const std::string sim = gauss_sim_json(solves);
    const std::string perf = solves_perf_json(solves);
    if (i == 0) {
      first = solves;
      first_sim = sim;
      first_perf = perf;
    } else {
      c.check(sim == first_sim && perf == first_perf,
              "gauss pass " + std::to_string(i) + " differs from pass 0");
    }
  });

  // Fig-5 shape and the committed bench_fig5_gauss rows.
  auto find = [&](bool smp, std::uint32_t p) -> const Solve* {
    for (const Solve& s : first)
      if (s.smp == smp && s.procs == p) return &s;
    return nullptr;
  };
  const Solve* us16 = find(false, 16);
  const Solve* smp16 = find(true, 16);
  const Solve* us128 = find(false, 128);
  const Solve* smp128 = find(true, 128);
  c.check(us16 && smp16 && smp16->elapsed < us16->elapsed,
          "Fig 5: SMP must beat US at P=16");
  c.check(us128 && smp128 && us128->elapsed < smp128->elapsed,
          "Fig 5: US must beat SMP at P=128");
  if (spec.n == 384) {
    for (const Fig5Row& row : kFig5) {
      const Solve* s = find(row.smp, row.procs);
      c.check(s && std::llround(sim_seconds(s->elapsed) * 100) ==
                       std::llround(row.seconds * 100),
              std::string("Fig 5 row drifted: ") + (row.smp ? "smp" : "us") +
                  " P=" + std::to_string(row.procs));
    }
  }

  for (const Solve& s : first) add_solve(o.layers, s);
  o.sim.raw("gauss", first_sim);
  o.substrate.raw("solves", first_perf);
  o.host_s = solve_t.mean_sum();
  o.setup_s = setup_t.median_sum();
  o.layer_host_s = solve_t.best_sum();
  o.host.num("solves_mean_s", o.host_s)
      .num("solves_best_s", o.layer_host_s)
      .num("solves_median_s", solve_t.median_sum())
      .num("solves_cpu_best_s", cpu_t.best_sum())
      .num("setup_median_s", o.setup_s);

  if (spans != nullptr) {
    const std::vector<Solve> traced = run_gauss_pass(spec, reference, spans);
    for (const Solve& s : traced) o.traced_host_s += s.host_s;
    o.plain_host_s = solve_t.median_sum();
    c.check(gauss_sim_json(traced) == first_sim &&
                solves_perf_json(traced) == first_perf,
            "traced gauss pass differs from the untraced one");
  }
  return o;
}

// --- observed -----------------------------------------------------------------

GaussSpec observed_spec(const Args& a) {
  GaussSpec s;
  s.n = a.smoke ? 64 : 256;
  s.procs = {64};
  s.system_seed = mix_seed(a.seed, kGaussStream);
  return s;
}

std::string observed_sim_json(const ObservedPass& p) {
  JsonObj o;
  o.raw("bare", solve_sim(p.bare).str())
      .raw("observed", solve_sim(p.observed).str())
      .num("scope_spans", p.scope_spans)
      .num("scope_refs_seen", p.scope_refs)
      .num("races", p.races)
      .num("blocked_at_end", p.blocked_at_end)
      .num("stuck_reports", p.stuck_reports)
      .num("sim_s", sim_seconds(p.observed.elapsed));
  return o.str();
}

std::string observed_perf_json(const ObservedPass& p) {
  JsonObj o;
  o.raw("bare", perf_json(p.bare.perf).str())
      .raw("observed", perf_json(p.observed.perf).str());
  return o.str();
}

void check_observed(const ObservedPass& p, Checks& c) {
  check_solves({p.bare, p.observed}, c);
  c.check(p.observed.elapsed == p.bare.elapsed,
          "observers changed the simulated result");
  c.check(p.races == 0, "race detector reported races on gauss_us");
  c.check(p.blocked_at_end == 0 && p.stuck_reports == 0,
          "wait-for graph reports stuck processes after the solve");
}

Outcome run_observed(const Args& a, Checks& c, SpanLog* spans) {
  const GaussSpec spec = observed_spec(a);
  const std::vector<double> reference =
      bfly::apps::gauss_reference(spec.n, spec.system_seed);
  Outcome o;
  ObservedPass first;
  std::string first_sim, first_perf;
  Timings obs_t, bare_t, setup_t;
  o.passes = repeat_for(a.seconds, 3, o.speed, [&](int i) {
    const ObservedPass p = run_observed_pass(spec, reference, nullptr);
    if (i == 0) o.rss_mb = peak_rss_mb();
    obs_t.add(0, p.observed.host_s);
    bare_t.add(0, p.bare.host_s);
    setup_t.add(0, p.observed.setup_s);
    check_observed(p, c);
    const std::string sim = observed_sim_json(p);
    const std::string perf = observed_perf_json(p);
    if (i == 0) {
      first = p;
      first_sim = sim;
      first_perf = perf;
    } else {
      c.check(sim == first_sim && perf == first_perf,
              "observed pass " + std::to_string(i) + " differs from pass 0");
    }
  });
  add_solve(o.layers, first.observed);
  o.layers.scope_spans = first.scope_spans;
  o.layers.scope_refs = first.scope_refs;
  o.layers.races = first.races;
  o.layers.blocked_at_end = first.blocked_at_end;
  o.host_s = obs_t.mean_sum();
  o.setup_s = setup_t.median_sum();
  o.layer_host_s = obs_t.best_sum();
  o.layers.observe_overhead = o.layer_host_s / bare_t.best_sum();
  o.sim.raw("observed", first_sim);
  o.substrate.raw("observed", first_perf);
  o.host.num("observed_mean_s", o.host_s)
      .num("observed_best_s", o.layer_host_s)
      .num("observed_median_s", obs_t.median_sum())
      .num("bare_best_s", bare_t.best_sum())
      .num("bare_median_s", bare_t.median_sum())
      .num("setup_median_s", o.setup_s)
      .num("observe_host_overhead", o.layers.observe_overhead);

  if (spans != nullptr) {
    const ObservedPass traced = run_observed_pass(spec, reference, spans);
    o.traced_host_s = traced.observed.host_s + traced.bare.host_s;
    o.plain_host_s = obs_t.median_sum() + bare_t.median_sum();
    c.check(observed_sim_json(traced) == first_sim &&
                observed_perf_json(traced) == first_perf,
            "traced observed pass differs from the untraced one");
  }
  return o;
}

// --- serve --------------------------------------------------------------------

struct ServePlan {
  ServeSpec light, heavy;
  std::vector<ServeSpec> ladder;
};

ServePlan serve_plan(const Args& a) {
  using bfly::sim::kSecond;
  const Time light = a.smoke ? kSecond : 10 * kSecond;
  const Time heavy = a.smoke ? 2 * kSecond : 20 * kSecond;
  const Time rung = a.smoke ? kSecond / 2 : 4 * kSecond;
  ServePlan p;
  p.light = {"light", 800, light, mix_seed(a.seed, 800)};
  p.heavy = {"heavy", 1600, heavy, mix_seed(a.seed, 1600)};
  for (const double rate : {1200.0, 1400.0, 1600.0, 1800.0, 2000.0})
    p.ladder.push_back(
        {"ladder", rate, rung,
         mix_seed(a.seed, 10000 + static_cast<std::uint64_t>(rate))});
  return p;
}

std::string serve_sim_json(const ServeRun& r, const ServeSpec& s) {
  JsonObj o;
  o.str("phase", s.phase)
      .num("offered_per_s", s.offered)
      .num("duration_ns", static_cast<std::uint64_t>(s.duration))
      .num("issued", r.issued)
      .num("ok", r.ok)
      .num("timeouts", r.timeouts)
      .num("sheds", r.sheds)
      .num("noreplica", r.noreplica)
      .num("goodput_per_s", goodput_per_s(r, s))
      .num("read_p50_ms", quantile_ms(r.read_resp, 0.50))
      .num("read_p99_ms", quantile_ms(r.read_resp, 0.99))
      .num("write_p99_ms", quantile_ms(r.write_resp, 0.99))
      .num("service_p99_ms", quantile_ms(r.service, 0.99))
      .num("gen_late_p99_ms", quantile_ms(r.late, 0.99))
      .num("retries", r.counters.retries)
      .num("hedges", r.counters.hedges)
      .num("hedge_wins", r.counters.hedge_wins)
      .num("disk_ops", r.disk_ops)
      .num("false_suspects", r.false_suspects)
      .num("epoch_bumps", r.epoch_bumps)
      .num("live_processes", r.live_processes)
      .num("local_refs", r.local_refs)
      .num("remote_refs", r.remote_refs)
      .num("queue_ns", static_cast<std::uint64_t>(r.queue_ns))
      .num("setup_end_ns", static_cast<std::uint64_t>(r.setup_end))
      .num("elapsed_ns", static_cast<std::uint64_t>(r.elapsed))
      .num("blocked_at_end", r.blocked_at_end)
      .num("readback_stale", r.readback_stale)
      .num("readback_lost", r.readback_lost);
  return o.str();
}

void check_serve_run(const ServeRun& r, const ServeSpec& s, Checks& c) {
  const std::string tag = std::string(s.phase) + "@" +
                          std::to_string(static_cast<int>(s.offered));
  c.check(r.clients_done == kServeClients && r.host_s > 0,
          tag + ": not every client finished its schedule");
  c.check(r.setup_end == 1500 * bfly::sim::kMillisecond,
          tag + ": set-up overran the warm-up window");
  // Ladder rungs probe rates up to overload, where shed write arms can cost
  // an acknowledged write (counted in serve.ladder.lost_blocks); the
  // serving phases, which fail no request, must lose none.
  if (std::strcmp(s.phase, "ladder") != 0)
    c.check(r.readback_blocks > 0 && r.readback_lost == 0,
            tag + ": " + std::to_string(r.readback_lost) +
                " blocks lost their last acknowledged write");
}

Outcome run_serve_workload(const Args& a, Checks& c, SpanLog* spans) {
  const ServePlan plan = serve_plan(a);
  Outcome o;
  std::vector<ServeRun> first;
  std::vector<std::string> first_sim, first_perf;
  Timings window_t, heavy_t;
  std::vector<double> setups;
  o.passes = repeat_for(a.seconds, 3, o.speed, [&](int i) {
    std::vector<const ServeSpec*> specs{&plan.light, &plan.heavy};
    for (const ServeSpec& s : plan.ladder) specs.push_back(&s);
    for (std::size_t j = 0; j < specs.size(); ++j) {
      ServeRun r = run_serve(*specs[j], nullptr);
      window_t.add(j, r.host_s);
      setups.push_back(r.setup_s);
      if (j == 1) heavy_t.add(0, r.setup_s + r.host_s);
      check_serve_run(r, *specs[j], c);
      if (j < 2) c.requests(r.issued, r.issued - r.ok);
      const std::string sim = serve_sim_json(r, *specs[j]);
      const std::string perf = perf_json(r.perf).str();
      if (i == 0) {
        first_sim.push_back(sim);
        first_perf.push_back(perf);
        first.push_back(std::move(r));
      } else {
        c.check(sim == first_sim[j] && perf == first_perf[j],
                std::string("serve ") + specs[j]->phase + " run of pass " +
                    std::to_string(i) + " differs from pass 0");
      }
    }
    if (i == 0) o.rss_mb = peak_rss_mb();
  });

  const ServeRun& light = first[0];
  const ServeRun& heavy = first[1];
  Layers& l = o.layers;
  l.events = heavy.perf.events_dispatched;
  l.fiber_resumes = heavy.perf.fiber_resumes;
  l.fastpath_charges = heavy.perf.fastpath_charges;
  l.local_refs = heavy.local_refs;
  l.remote_refs = heavy.remote_refs;
  l.queue_ns = heavy.queue_ns;
  l.sim_s = sim_seconds(heavy.elapsed);
  l.live_processes = heavy.live_processes;
  l.disk_ops = heavy.disk_ops;
  l.retries = heavy.counters.retries;
  l.hedges = heavy.counters.hedges;
  l.hedge_wins = heavy.counters.hedge_wins;
  l.sheds = heavy.counters.sheds;
  l.timeouts = heavy.counters.timeouts;
  l.service_p99_ms = quantile_ms(heavy.service, 0.99);
  l.gen_late_p99_ms = quantile_ms(heavy.late, 0.99);
  l.light_read_p99_ms = quantile_ms(light.read_resp, 0.99);
  l.heavy_read_p50_ms = quantile_ms(heavy.read_resp, 0.50);
  l.heavy_read_p99_ms = quantile_ms(heavy.read_resp, 0.99);
  l.heavy_write_p99_ms = quantile_ms(heavy.write_resp, 0.99);
  l.heavy_goodput = goodput_per_s(heavy, plan.heavy);
  l.requests = heavy.issued;
  l.stale_blocks = heavy.readback_stale;
  l.false_suspects = heavy.false_suspects;
  l.epoch_bumps = heavy.epoch_bumps;
  for (const ServeRun& r : first) l.blocked_at_end_serve += r.blocked_at_end;
  for (std::size_t j = 0; j < plan.ladder.size(); ++j) {
    if (ladder_rate_ok(first[2 + j], plan.ladder[j]))
      l.max_rate = std::max(l.max_rate, plan.ladder[j].offered);
    l.ladder_lost_blocks += first[2 + j].readback_lost;
  }
  c.check(l.max_rate > 0, "no ladder rate met the read p99 limit");

  o.sim.raw("runs", json_array(first_sim)).num("max_rate_per_s", l.max_rate);
  o.substrate.raw("runs", json_array(first_perf));
  o.host_s = window_t.mean_sum();
  o.setup_s = median(setups);
  o.layer_host_s = heavy_t.best_sum();
  o.host.num("windows_mean_s", o.host_s)
      .num("windows_best_s", window_t.best_sum())
      .num("windows_median_s", window_t.median_sum())
      .num("setup_s_median", o.setup_s)
      .num("heavy_run_best_s", o.layer_host_s);

  if (spans != nullptr) {
    const ServeRun traced = run_serve(plan.heavy, spans);
    o.traced_host_s = traced.setup_s + traced.host_s;
    o.plain_host_s = heavy_t.median_sum();
    c.check(serve_sim_json(traced, plan.heavy) == first_sim[1] &&
                perf_json(traced.perf).str() == first_perf[1],
            "traced heavy serving run differs from the untraced one");
  }
  return o;
}

// --- metrics ------------------------------------------------------------------

void end_to_end_metrics(const Outcome& o, Metrics& m) {
  m.set("host_s", o.host_s * o.speed.scale(), "s");
  m.set("setup_s", o.setup_s * o.speed.scale(), "s");
  m.set("peak_rss_mb", o.rss_mb, "MB");
}

const Rung* rung(const std::vector<Rung>& ladder, const std::string& name) {
  for (const Rung& r : ladder)
    if (r.name == name) return &r;
  return nullptr;
}

/// Host ns per op a rung spends outside the substrate (engine events,
/// fiber switches, fast-path charges): the layer's own code.
double own_ns(const std::vector<Rung>& ladder, const std::string& name) {
  const Rung* r = rung(ladder, name);
  const double ev = rung(ladder, "sim.ladder.event")->host_ns;
  const double sw = rung(ladder, "sim.ladder.switch_pair")->host_ns;
  const double fp = rung(ladder, "sim.ladder.ref_fast")->host_ns;
  const double ops = static_cast<double>(r->ops);
  const double sub = (static_cast<double>(r->perf.events_dispatched) * ev +
                      static_cast<double>(r->perf.fiber_resumes) * sw +
                      static_cast<double>(r->perf.fastpath_charges) * fp) /
                     ops;
  return std::max(0.0, r->host_ns - sub);
}

void per_layer_metrics(const Outcome& o, const std::vector<Rung>& ladder,
                       Metrics& m) {
  const Layers& l = o.layers;
  auto count = [&](const char* name, std::uint64_t v) {
    m.set(name, static_cast<double>(v), "count");
  };
  // sim
  count("sim.events", l.events);
  count("sim.fiber_resumes", l.fiber_resumes);
  count("sim.fastpath_charges", l.fastpath_charges);
  const double work =
      static_cast<double>(l.events) + static_cast<double>(l.fastpath_charges);
  m.set("sim.fastpath_share",
        work > 0 ? static_cast<double>(l.fastpath_charges) / work : 0.0,
        "ratio");
  m.set("sim.host_ns_per_event", work > 0 ? o.layer_host_s * 1e9 / work : 0.0,
        "ns");
  count("sim.local_refs", l.local_refs);
  count("sim.remote_refs", l.remote_refs);
  m.set("sim.queue_ms", sim_ms(l.queue_ns), "sim_ms");
  m.set("sim_s", l.sim_s, "sim_s");
  // chrysalis, smp, bridge
  count("chrysalis.live_processes", l.live_processes);
  count("chrysalis.blocked_at_end", l.blocked_at_end_serve);
  count("smp.messages", l.smp_messages);
  count("bridge.disk_ops", l.disk_ops);
  // serve
  count("serve.retries", l.retries);
  count("serve.hedges", l.hedges);
  m.set("serve.hedge_win_ratio",
        l.hedges > 0 ? static_cast<double>(l.hedge_wins) /
                           static_cast<double>(l.hedges)
                     : 0.0,
        "ratio");
  count("serve.sheds", l.sheds);
  count("serve.timeouts", l.timeouts);
  count("serve.stale_blocks", l.stale_blocks);
  count("serve.ladder.lost_blocks", l.ladder_lost_blocks);
  m.set("serve.service_p99_ms", l.service_p99_ms, "sim_ms");
  m.set("serve.gen_late_p99_ms", l.gen_late_p99_ms, "sim_ms");
  m.set("serve.light.read_p99_ms", l.light_read_p99_ms, "sim_ms");
  m.set("serve.heavy.read_p50_ms", l.heavy_read_p50_ms, "sim_ms");
  m.set("serve.heavy.read_p99_ms", l.heavy_read_p99_ms, "sim_ms");
  m.set("serve.heavy.write_p99_ms", l.heavy_write_p99_ms, "sim_ms");
  m.set("serve.heavy.goodput_per_s", l.heavy_goodput, "ops/sim_s");
  m.set("serve.max_rate_per_s", l.max_rate, "ops/sim_s");
  // rescue
  count("rescue.false_suspects", l.false_suspects);
  count("rescue.epoch_bumps", l.epoch_bumps);
  // scope, analyze, moviola
  count("scope.spans", l.scope_spans);
  count("scope.refs_seen", l.scope_refs);
  count("analyze.races", l.races);
  count("moviola.blocked_at_end", l.blocked_at_end);
  m.set("observe.host_overhead", l.observe_overhead, "ratio");
  // the ladder
  for (const Rung& r : ladder) {
    m.set(r.name + "_ns", r.host_ns, "ns");
    if (r.has_sim) m.set(r.name + "_sim_us", r.sim_us, "sim_us");
  }
  // The traced run: its overhead and the host-time attribution.
  m.set("trace.overhead_s", o.traced_host_s - o.plain_host_s, "s");
  m.set("trace.spans", static_cast<double>(o.trace_spans), "count");
  const double ev = rung(ladder, "sim.ladder.event")->host_ns;
  const double sw = rung(ladder, "sim.ladder.switch_pair")->host_ns;
  const double fp = rung(ladder, "sim.ladder.ref_fast")->host_ns;
  const double host_ns = o.layer_host_s * 1e9;
  const double sim_share =
      (static_cast<double>(l.events) * ev +
       static_cast<double>(l.fiber_resumes) * sw +
       static_cast<double>(l.fastpath_charges) * fp) / host_ns;
  const double smp_share = static_cast<double>(l.smp_messages) *
                           own_ns(ladder, "smp.ladder.msg") / host_ns;
  const double serve_share = static_cast<double>(l.requests) *
                             own_ns(ladder, "serve.ladder.read") / host_ns;
  m.set("sim.host_share", sim_share, "ratio");
  m.set("smp.host_share", smp_share, "ratio");
  m.set("serve.host_share", serve_share, "ratio");
  m.set("trace.unattributed_share", 1.0 - sim_share - smp_share - serve_share,
        "ratio");
}

std::string metrics_json(const Metrics& m) {
  JsonObj o;
  for (const Metrics::Row& r : m.rows()) {
    JsonObj v;
    v.num("value", r.value).str("unit", r.unit);
    o.raw(r.name, v.str());
  }
  return o.str();
}

/// Per span name: count, summed host and simulated duration, summed
/// counter deltas.  The raw spans go to --spans-out.
std::string span_summary(const SpanLog& log) {
  struct Agg {
    std::string layer;
    std::uint64_t count = 0;
    double host_s = 0;
    Time sim_ns = 0;
    std::map<std::string, std::int64_t> deltas;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanLog::Span& s : log.spans()) {
    Agg& a = by_name[s.name];
    a.layer = s.layer;
    ++a.count;
    a.host_s += s.host_end - s.host_begin;
    a.sim_ns += s.sim_end - s.sim_begin;
    for (const auto& [k, v] : s.deltas) a.deltas[k] += v;
  }
  JsonObj o;
  for (const auto& [name, a] : by_name) {
    JsonObj d;
    for (const auto& [k, v] : a.deltas) d.num(k, v);
    JsonObj row;
    row.str("layer", a.layer)
        .num("count", a.count)
        .num("host_s", a.host_s)
        .num("sim_ns", static_cast<std::uint64_t>(a.sim_ns))
        .raw("deltas", d.str());
    o.raw(name, row.str());
  }
  return o.str();
}

bool write_spans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\":[";
  bool first = true;
  for (const SpanLog::Span& s : log.spans()) {
    JsonObj d;
    for (const auto& [k, v] : s.deltas) d.num(k, v);
    JsonObj row;
    row.str("layer", s.layer)
        .str("name", s.name)
        .num("host_begin_s", s.host_begin)
        .num("host_end_s", s.host_end)
        .num("sim_begin_ns", static_cast<std::uint64_t>(s.sim_begin))
        .num("sim_end_ns", static_cast<std::uint64_t>(s.sim_end))
        .raw("deltas", d.str());
    out << (first ? "" : ",\n") << row.str();
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int run(const Args& a) {
  Checks checks;
  SpanLog log;
  SpanLog* spans = a.trace ? &log : nullptr;
  Outcome o;
  if (a.workload == "gauss") o = run_gauss(a, checks, spans);
  else if (a.workload == "observed") o = run_observed(a, checks, spans);
  else o = run_serve_workload(a, checks, spans);

  Metrics metrics;
  JsonObj traced;
  if (a.trace) {
    o.trace_spans = log.spans().size();
    const std::vector<Rung> ladder = run_ladder(3, a.smoke ? 0.05 : 1.0);
    if (a.workload != "observed") {
      // Observer overhead probe: one bare and one observed solve of the
      // observed workload's configuration.  The workload itself attaches
      // no observer, so its scope/analyze/moviola counts stay zero.
      const GaussSpec spec = observed_spec(a);
      const ObservedPass p = run_observed_pass(
          spec, bfly::apps::gauss_reference(spec.n, spec.system_seed),
          nullptr);
      o.layers.observe_overhead = p.observed.host_s / p.bare.host_s;
    }
    per_layer_metrics(o, ladder, metrics);
    traced.num("traced_pass_host_s", o.traced_host_s)
        .num("plain_pass_host_s", o.plain_host_s)
        .raw("spans", span_summary(log));
    if (!a.spans_out.empty())
      checks.check(write_spans(log, a.spans_out),
                   "could not write the span log to " + a.spans_out);
  } else {
    end_to_end_metrics(o, metrics);
  }
  o.host.num("calibration_chunks", static_cast<std::uint64_t>(o.speed.chunks))
      .num("calibration_chunk_mean_s",
           o.speed.chunk_sum_s / std::max(1, o.speed.chunks))
      .num("speed_scale", o.speed.scale())
      .num("peak_rss_mb_end", peak_rss_mb()).num("passes",
                                               static_cast<std::uint64_t>(o.passes));

  std::vector<std::string> failures;
  for (const std::string& f : checks.failures()) failures.push_back(JsonObj::quote(f));
  JsonObj chk;
  const auto attempted = checks.attempted();
  chk.num("attempted", attempted)
      .num("failed", checks.failed())
      .num("fail_frac", attempted > 0 ? static_cast<double>(checks.failed()) /
                                            static_cast<double>(attempted)
                                      : 0.0)
      .raw("failures", json_array(failures));
  JsonObj doc;
  doc.str("workload", a.workload)
      .num("seed", a.seed)
      .num("trace", static_cast<std::uint64_t>(a.trace ? 1 : 0))
      .boolean("smoke", a.smoke)
      .raw("sim", o.sim.str())
      .raw("substrate", o.substrate.str())
      .raw("host", o.host.str())
      .raw("checks", chk.str())
      .raw("metrics", metrics_json(metrics));
  if (a.trace) doc.raw("traced", traced.str());
  std::printf("%s\n", doc.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
