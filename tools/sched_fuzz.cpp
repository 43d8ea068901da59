// sched_fuzz [seeds] [--workload=NAME] — PCT-style schedule sweep.
//
// Runs each workload once per exploration seed with the moviola Detector
// attached and fails loudly on any finding: a deadlock, lost wakeup,
// starvation or orphan wait that only one dispatch order can reach.  The
// workloads are the stack's most schedule-sensitive machinery:
//
//   dq      — many consumers racing on shared dual queues with timed and
//             untimed dequeues (the dq_dequeue_for wait-generation guard
//             is exactly the code a perturbed handoff order stresses);
//   monitor — the Instant Replay CREW monitor under token-paced writers,
//             recording a log per seed and re-running it in replay mode:
//             the replayed order must match the recorded one bit for bit;
//   us      — the Uniform System task machinery (manager loops, the task
//             dual queue, nested gen_task, the wait_idle completion
//             counter) that the whole application suite runs on;
//   serve   — a miniature replicated-Bridge serving cell with a silent
//             kill, rescue membership and background repair, where
//             Membership::stop()'s join paths race daemon wakeups.  Once
//             repair is idle every block must be back at full replication
//             and, after resync_block(), read back its last acknowledged
//             write or one concurrent with it: no schedule may lose one.
//
// Every seed is deterministic: a failure prints its seed, and re-running
// with that seed reproduces the run exactly (record the monitor workload
// under the seed and the Instant Replay log pins the interleaving for
// good).  Exit status 0 = every seed of every workload came out clean.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../bench/serving_common.hpp"
#include "bridge/bridge.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "rescue/rescue.hpp"
#include "serve/serve.hpp"
#include "us/uniform_system.hpp"

namespace {

using bfly::moviola::Detector;
using bfly::sim::butterfly1;
using bfly::sim::Machine;

struct SweepStats {
  int runs = 0;
  int failures = 0;
  std::uint64_t distinct_orders = 0;
};

bool report_run(const char* workload, std::uint64_t seed, Machine& m,
                Detector& d) {
  const auto findings = d.analyze();
  if (findings.empty() && d.lints().empty() && !m.deadlocked()) return true;
  std::fprintf(stderr, "sched_fuzz: %s seed %llu FAILED\n%s", workload,
               static_cast<unsigned long long>(seed), d.report().c_str());
  if (m.deadlocked() && findings.empty())
    std::fprintf(stderr, "  (machine deadlocked with no classified finding)\n");
  return false;
}

// --- dq: consumers race timed and untimed dequeues on shared queues --------
bool run_dq(std::uint64_t seed) {
  Machine m(butterfly1(4));
  bfly::chrys::Kernel k(m);
  Detector d(m, &k);
  k.set_schedule_exploration(seed);
  const bfly::chrys::Oid q1 = k.make_dual_queue();
  const bfly::chrys::Oid q2 = k.make_dual_queue();
  constexpr int kConsumers = 6;
  constexpr int kItemsEach = 8;
  for (int c = 0; c < kConsumers; ++c) {
    k.create_process(c % 4, [&k, q1, q2, c] {
      for (int i = 0; i < kItemsEach; ++i) {
        // Alternate untimed dequeues with timed ones that mostly expire:
        // the wait-generation guard must never let a stale timer cancel a
        // later wait on the same queue.
        if ((c + i) % 3 == 0) {
          std::uint32_t v = 0;
          if (k.dq_dequeue_for(q2, 300 * bfly::sim::kMicrosecond, &v))
            k.dq_enqueue(q1, v);  // bounce served items to the other queue
          else
            k.dq_enqueue(q1, 0);
        } else {
          (void)k.dq_dequeue(q1);
        }
      }
    }, "consumer" + std::to_string(c));
  }
  k.create_process(3, [&k, q1, q2] {
    for (int i = 0; i < kConsumers * kItemsEach; ++i) {
      k.delay(150 * bfly::sim::kMicrosecond);
      k.dq_enqueue((i % 4 == 0) ? q2 : q1, static_cast<std::uint32_t>(i));
    }
    // Top up q1: timed q2 waits that get served bounce into q1, but timed
    // waits that expire also enqueue 0 there, so the exact balance depends
    // on the schedule.  Feed until everyone can finish.
    for (int i = 0; i < kConsumers * kItemsEach; ++i) {
      k.delay(100 * bfly::sim::kMicrosecond);
      k.dq_enqueue(q1, 1u);
    }
  }, "producer");
  m.run();
  // Surplus producer items leave queued data behind, never waiters: any
  // finding here is real.
  return report_run("dq", seed, m, d);
}

// --- monitor: record under the seed, then force the order back ------------
bool run_monitor(std::uint64_t seed, SweepStats& st) {
  using bfly::replay::Log;
  using bfly::replay::Mode;
  using bfly::replay::Monitor;
  constexpr std::uint32_t kActors = 4;
  constexpr std::uint32_t kRounds = 5;

  auto run = [&](Mode mode, std::uint64_t explore, const Log* script,
                 std::vector<std::uint32_t>* order, Log* log_out) -> bool {
    Machine m(butterfly1(8));
    bfly::chrys::Kernel k(m);
    Detector d(m, &k);
    if (explore != 0) k.set_schedule_exploration(explore);
    Monitor mon(k, kActors);
    const std::uint32_t obj = mon.register_object(0, "counter");
    mon.set_mode(mode);
    if (script != nullptr) mon.load_log(*script);
    const bfly::chrys::Oid tokens = k.make_dual_queue();
    for (std::uint32_t a = 0; a < kActors; ++a) {
      k.create_process(1 + a, [&, a] {
        for (std::uint32_t r = 0; r < kRounds; ++r) {
          (void)k.dq_dequeue(tokens);
          mon.begin_write(a, obj);
          if (order != nullptr) order->push_back(a);
          m.charge(400 * bfly::sim::kMicrosecond);
          mon.end_write(a, obj);
        }
      }, "actor" + std::to_string(a));
    }
    k.create_process(0, [&] {
      for (std::uint32_t i = 0; i < kActors * kRounds; ++i) {
        k.delay(600 * bfly::sim::kMicrosecond);
        k.dq_enqueue(tokens, i);
      }
    }, "dispenser");
    m.run();
    if (log_out != nullptr) *log_out = mon.take_log();
    return report_run("monitor", seed, m, d);
  };

  Log log;
  std::vector<std::uint32_t> recorded, replayed;
  if (!run(Mode::kRecord, seed, nullptr, &recorded, &log)) return false;
  // Replay under a different exploration seed: the log must win.
  if (!run(Mode::kReplay, seed + 1, &log, &replayed, nullptr)) return false;
  if (replayed != recorded) {
    std::fprintf(stderr,
                 "sched_fuzz: monitor seed %llu: replay diverged from the "
                 "recorded order\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  st.distinct_orders += recorded.empty() ? 0 : recorded[0] + 1;  // coarse mix
  return true;
}

// --- us: Uniform System task machinery under perturbed dispatch ------------
// The app suite runs on US; sweeping its manager loops, task dual queue
// and wait_idle completion counter under exploration covers the blocking
// graph every application actually exercises.
bool run_us(std::uint64_t seed) {
  Machine m(butterfly1(8));
  bfly::chrys::Kernel k(m);
  Detector d(m, &k);
  k.set_schedule_exploration(seed);
  bfly::us::UniformSystem us(k);
  std::uint32_t sum = 0;
  us.run_main([&] {
    const bfly::sim::PhysAddr cell = us.alloc_global(8);
    us.put<std::uint32_t>(cell, 0);
    // Nested generation: tasks generate subtasks, so the completion
    // counter sees concurrent increments from every manager while the
    // parent blocks in wait_idle.
    us.for_all(0, 24, [&](bfly::us::TaskCtx& t) {
      if (t.arg % 4 == 0)
        t.us.gen_task(
            [&](bfly::us::TaskCtx& t2) { (void)t2.us.atomic_add(cell, 1); },
            t.arg);
      (void)t.us.atomic_add(cell, 1);
    });
    sum = us.get<std::uint32_t>(cell);
  });
  if (sum != 24 + 6) {
    std::fprintf(stderr,
                 "sched_fuzz: us seed %llu: task sum %u != 30 (tasks lost "
                 "or duplicated under exploration)\n",
                 static_cast<unsigned long long>(seed), sum);
    return false;
  }
  return report_run("us", seed, m, d);
}

// --- serve: mini chaos cell with membership join on the way out ------------
bool run_serve(std::uint64_t seed) {
  Machine m(butterfly1(16));
  bfly::chrys::Kernel k(m);
  Detector d(m, &k);
  k.set_schedule_exploration(seed);
  d.arm_watchdog(2 * bfly::sim::kSecond);
  // Hard simulated-time cap: a wedged schedule must become a diagnosis,
  // not a hung sweep.  A clean run finishes well under it — the cap
  // closure then finds `finished` set and does nothing (it cannot be
  // unscheduled, so it must not treat a completed run as wedged).
  bool timed_out = false;
  bool finished = false;
  m.engine().post_at(120 * bfly::sim::kSecond, [&m, &timed_out, &finished] {
    if (finished) return;
    timed_out = true;
    m.engine().stop();
  });
  constexpr std::uint32_t kWorkers = 3;
  constexpr std::uint32_t kOpsPer = 8;
  std::uint32_t done = 0;
  std::vector<std::vector<bfly::bench::WriteSeen>> writes(kWorkers);
  std::string lost;  // what the durability check found, if anything

  k.create_process(15, [&] {
    bfly::bridge::BridgeFs fs(k, 8);
    {
      bfly::rescue::RescueConfig rc;
      rc.monitor_node = 14;
      bfly::rescue::Membership mem(k, rc);
      bfly::serve::ServeConfig cfg;
      cfg.min_hedge_samples = 1u << 20;
      bfly::serve::ReplicatedFs rfs(k, fs, nullptr, cfg);
      const bfly::bridge::FileId f = rfs.open("fuzz", 16);
      // Silently kill the server of block 0's first replica mid-run, so
      // repair has a replica to move.
      m.kill_node(fs.server_node(rfs.replica_server(f, 0, 0)),
                  400 * bfly::sim::kMillisecond, /*silent=*/true);
      // Tagged content (bench/serving_common.hpp): the seed data has tag 0,
      // and every worker write a tag of its own.
      std::vector<std::uint8_t> blk;
      for (std::uint32_t b = 0; b < kWorkers; ++b) {
        bfly::bench::fill_block(blk, f, b, 0);
        (void)rfs.write(f, b, blk.data());
      }
      mem.start();
      rfs.start_repair(13);
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        k.create_process(9 + w, [&, w] {
          std::vector<std::uint8_t> buf(bfly::bridge::kBlockSize);
          for (std::uint32_t op = 0; op < kOpsPer; ++op) {
            k.delay(10 * bfly::sim::kMillisecond);
            if (op % 3 == 2) {
              const std::uint64_t tag = 1 + w * kOpsPer + op;
              bfly::bench::fill_block(buf, f, w, tag);
              const bfly::sim::Time issue = m.now();
              const bool acked =
                  rfs.write(f, w, buf.data()) == bfly::serve::Status::kOk;
              writes[w].push_back({tag, issue, m.now(), acked});
            } else {
              (void)rfs.read(f, w, buf.data());
            }
          }
          ++done;
        }, "worker" + std::to_string(w));
      }
      while (done < kWorkers) k.delay(40 * bfly::sim::kMillisecond);
      for (int i = 0; i < 200 && (m.stats().suspects_declared == 0 ||
                                  !rfs.repair_idle());
           ++i)
        k.delay(20 * bfly::sim::kMillisecond);
      // Durability: repair restored every block, and no acknowledged write
      // was lost on the way.
      std::vector<std::uint8_t> got(bfly::bridge::kBlockSize);
      for (std::uint32_t b = 0; b < kWorkers; ++b) {
        const std::uint32_t live = rfs.live_replicas(f, b);
        rfs.resync_block(f, b);
        const bool kept =
            rfs.read(f, b, got.data()) == bfly::serve::Status::kOk &&
            bfly::bench::readback_ok(writes[b], got, f, b);
        if (live != cfg.replicas || !kept)
          lost += "  block " + std::to_string(b) + ": " +
                  std::to_string(live) + " live replicas, last acked write " +
                  (kept ? "kept" : "lost") + "\n";
      }
      // The join paths under perturbed dispatch: stop() must wait for
      // every daemon on a live node, no matter who gets scheduled first.
      mem.stop();
      rfs.stop_repair();
    }
    fs.shutdown();
    finished = true;
  }, "driver");
  m.run();
  if (timed_out) {
    std::fprintf(stderr,
                 "sched_fuzz: serve seed %llu WEDGED (stopped at simulated "
                 "%llu ns, %u/%u workers done)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(m.now()), done, kWorkers);
    for (const auto& b : k.blocked_processes())
      std::fprintf(stderr, "  blocked: %s (oid %u) on oid %u\n",
                   b.name.c_str(), b.process, b.waiting_on);
    std::fprintf(stderr, "%s", k.sched_snapshot().c_str());
    (void)report_run("serve", seed, m, d);
    return false;
  }
  if (!lost.empty()) {
    std::fprintf(stderr, "sched_fuzz: serve seed %llu lost durability\n%s",
                 static_cast<unsigned long long>(seed), lost.c_str());
    (void)report_run("serve", seed, m, d);
    return false;
  }
  return report_run("serve", seed, m, d);
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 200;
  std::string workload = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workload=", 11) == 0)
      workload = argv[i] + 11;
    else
      seeds = std::atoi(argv[i]);
  }
  if (seeds <= 0) {
    std::fprintf(
        stderr,
        "usage: sched_fuzz [seeds>0] [--workload=dq|monitor|us|serve|all]\n");
    return 2;
  }

  SweepStats st;
  int failures = 0;
  for (int s = 1; s <= seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s) * 7919u;  // spread seeds
    if (workload == "all" || workload == "dq") {
      ++st.runs;
      if (!run_dq(seed)) ++failures;
    }
    if (workload == "all" || workload == "monitor") {
      ++st.runs;
      if (!run_monitor(seed, st)) ++failures;
    }
    if (workload == "all" || workload == "us") {
      ++st.runs;
      if (!run_us(seed)) ++failures;
    }
    if (workload == "all" || workload == "serve") {
      ++st.runs;
      if (!run_serve(seed)) ++failures;
    }
  }
  std::printf("sched_fuzz: %d run(s) across %d seed(s), %d failure(s)\n",
              st.runs, seeds, failures);
  return failures == 0 ? 0 : 1;
}
