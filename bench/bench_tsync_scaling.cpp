// TSYNC — weak-scaling sweep of synchronization primitives to 16K nodes.
//
// The paper's busy-waiting warning (Section 5: waiting processors steal
// memory cycles from the node that owns the lock word) is a 128-node
// inconvenience that becomes a scaling wall three orders of magnitude
// later.  On the deliberately anachronistic `exascale_ish` profile
// (remote:local ~120x, per-node compute cheap) this bench sweeps
// 256/1K/4K/16K simulated nodes and pits the 1988 primitives against
// their scalable replacements:
//
//   lock:     test-and-set spin lock (exponential backoff) vs MCS queue
//             lock — contenders grab/release once, measuring the full
//             convoy drain.  Spin probes hammer the home module; MCS
//             waiters spin in their own memory.
//   barrier:  centralized counter + sense flag vs sense-reversing
//             combining tree (arity 4) — all N nodes arrive, 4 episodes.
//             Central arrival is O(n) serialized on one module; the tree
//             is O(log n) with local-only waiting.
//   counter:  one hot outstanding-work cell vs per-node distributed cells
//             (8 adds per node + one aggregating read) — the us::wait_idle
//             bookkeeping pattern at scale.
//   fadd:     concurrent fetch_add_u32 bursts into one cell with
//             model_switch_contention on, switch combining off vs on —
//             the Ultracomputer argument: adds meeting at a switch stage
//             merge, so the home port sees one transaction per window.
//
// The default run sweeps all four sizes; fast mode (BFLY_FAST=1, the
// bench-smoke CI stage) stops at {256, 1K}.  Both *gate* on the 256/1K
// rows: MCS must beat the spin lock at 1K, tree-barrier growth from
// 256->1K must look like O(log n) not O(n), the distributed counter must
// beat the central one, and combining must both engage (combined_adds > 0)
// and win elapsed time.  Every row lands in BENCH_sync.json.  Fully
// deterministic: simulated time, fixed layouts.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chrysalis/spinlock.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/counter.hpp"
#include "sync/mcs.hpp"

using namespace bfly;

namespace {

// Lock and fadd rows cap the contender count: the convoy's *length* is the
// workload, and past a couple thousand simultaneous contenders the host
// event count grows without changing the per-handoff story.
constexpr std::uint32_t kMaxContenders = 2048;
constexpr std::uint32_t kBarrierEpisodes = 4;
constexpr std::uint32_t kAddsPerNode = 32;  // counter rows
constexpr std::uint32_t kFaddPerActor = 4;  // fadd rows

struct Row {
  std::string prim;            // "lock-spin", "lock-mcs", ...
  std::uint32_t nodes = 0;     // machine size
  std::uint32_t actors = 0;    // fibers participating
  std::uint64_t ops = 0;       // acquisitions / barrier crossings / adds
  sim::Time elapsed = 0;
  std::uint64_t lock_spins = 0;
  std::uint64_t combined_adds = 0;
  std::string sync_json;

  double per_op_us() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(elapsed) / 1000.0 /
                          static_cast<double>(ops);
  }
};

void emit(bench::Report& report, const Row& r) {
  std::printf("%-12s %6u %7u %8llu %12.3f %10.3f %10llu %10llu\n",
              r.prim.c_str(), r.nodes, r.actors,
              static_cast<unsigned long long>(r.ops),
              bench::seconds(r.elapsed) * 1e3, r.per_op_us(),
              static_cast<unsigned long long>(r.lock_spins),
              static_cast<unsigned long long>(r.combined_adds));
  sim::json::Writer jw;
  jw.begin_object()
      .kv("bench", "tsync")
      .kv("prim", r.prim)
      .kv("nodes", r.nodes)
      .kv("actors", r.actors)
      .kv("ops", r.ops)
      .kv("elapsed_ms", bench::seconds(r.elapsed) * 1e3)
      .kv("per_op_us", r.per_op_us())
      .raw(r.sync_json)
      .end_object();
  report.row(jw.str());
}

void finish_row(Row& r, sim::Machine& m) {
  r.lock_spins = m.stats().lock_spins;
  r.combined_adds = m.stats().combined_adds;
  r.sync_json = m.stats().sync_json();
}

// Contenders spread across the machine; node 0 hosts the shared word.
std::vector<sim::NodeId> spread_nodes(std::uint32_t machine,
                                      std::uint32_t actors) {
  std::vector<sim::NodeId> nodes(actors);
  for (std::uint32_t w = 0; w < actors; ++w)
    nodes[w] = static_cast<sim::NodeId>(
        (static_cast<std::uint64_t>(w) * machine) / actors);
  return nodes;
}

// --- lock rows --------------------------------------------------------------

// Every row family runs with the switch-contention model on (combining
// still off outside the fadd A/B): the whole point is what hot-spot
// traffic does to a shared port, and without the model a centralized
// cell costs nothing extra no matter how many nodes probe it.
sim::MachineConfig contended(std::uint32_t machine) {
  sim::MachineConfig cfg = sim::exascale_ish(machine);
  cfg.model_switch_contention = true;
  return cfg;
}

Row run_lock(std::uint32_t machine, bool mcs) {
  const std::uint32_t actors = std::min(machine, kMaxContenders);
  sim::Machine m(contended(machine));
  const auto nodes = spread_nodes(machine, actors);
  const sim::PhysAddr cell = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  m.label_memory(cell, 8, "bench.lock");
  // The protected data lives with the lock word, as it would in any real
  // structure: the holder's critical-section references queue behind
  // whatever probe storm is hammering node 0's port — the "stolen memory
  // cycles" the paper warns about, charged to the one processor that is
  // making progress.
  const sim::PhysAddr data = m.alloc(0, 32);
  m.label_memory(data, 32, "bench.lock.data");
  // MCS waiters re-check locally — a probe steals nothing from anyone, so
  // the backoff cap can sit near the handoff latency itself and the cap
  // is purely a host-event bound, not a contention dial.
  sync::McsLock qlock(m, 0, nodes, sim::kMicrosecond, 8 * sim::kMicrosecond);
  for (std::uint32_t w = 0; w < actors; ++w) {
    m.spawn(nodes[w], [&m, &qlock, cell, data, w, mcs] {
      // The paper: "programs can be highly sensitive to the amount of
      // time spent between attempts to set a lock".  A 16 us cap is the
      // responsive end of that trade — handoffs are detected quickly, but
      // past ~400 waiters the probe stream alone saturates the home port
      // and the holder's own critical-section references queue behind it.
      chrys::SpinLock slock(m, cell, 2 * sim::kMicrosecond,
                            16 * sim::kMicrosecond);
      if (mcs) qlock.acquire(w); else slock.acquire();
      std::uint32_t v = 0;
      for (std::uint32_t i = 0; i < 4; ++i)
        v += m.read<std::uint32_t>(data.plus(8 * i));
      m.write<std::uint32_t>(data, v + 1);
      m.charge(2 * sim::kMicrosecond);  // local work on the guarded state
      if (mcs) qlock.release(w); else slock.release();
    });
  }
  Row r;
  r.prim = mcs ? "lock-mcs" : "lock-spin";
  r.nodes = machine;
  r.actors = actors;
  r.ops = actors;
  r.elapsed = m.run();
  finish_row(r, m);
  return r;
}

// --- barrier rows -----------------------------------------------------------

Row run_barrier(std::uint32_t machine, bool tree) {
  sim::Machine m(contended(machine));
  std::vector<sim::NodeId> nodes(machine);
  for (std::uint32_t w = 0; w < machine; ++w) nodes[w] = w;
  sync::CentralBarrier cbar(m, 0, machine, 5 * sim::kMicrosecond,
                            sim::kMillisecond);
  sync::TreeBarrier tbar(m, nodes, 4, sim::kMicrosecond,
                         64 * sim::kMicrosecond);
  for (std::uint32_t w = 0; w < machine; ++w) {
    m.spawn(nodes[w], [&m, &cbar, &tbar, w, tree] {
      for (std::uint32_t e = 0; e < kBarrierEpisodes; ++e) {
        // A sliver of skew so arrivals are a wave, not one instant.
        m.charge(((w * 37 + e * 11) % 64) * 100);
        if (tree) tbar.arrive(w); else cbar.arrive(w);
      }
    });
  }
  Row r;
  r.prim = tree ? "barrier-tree" : "barrier-central";
  r.nodes = machine;
  r.actors = machine;
  r.ops = kBarrierEpisodes;
  r.elapsed = m.run();
  finish_row(r, m);
  return r;
}

// --- counter rows -----------------------------------------------------------

Row run_counter(std::uint32_t machine, bool dist) {
  sim::Machine m(contended(machine));
  std::vector<sim::NodeId> nodes(machine);
  for (std::uint32_t w = 0; w < machine; ++w) nodes[w] = w;
  sync::CentralCounter central(m, 0, "bench.counter");
  sync::DistributedCounter spread(m, nodes, "bench.counter.d");
  sync::IdleCounter& c =
      dist ? static_cast<sync::IdleCounter&>(spread)
           : static_cast<sync::IdleCounter&>(central);
  for (std::uint32_t w = 0; w < machine; ++w) {
    m.spawn(nodes[w], [&m, &c, w] {
      for (std::uint32_t i = 0; i < kAddsPerNode; ++i) {
        (void)c.add(1);
        m.charge(((w * 13 + i * 7) % 32) * 100);
      }
      for (std::uint32_t i = 0; i < kAddsPerNode; ++i)
        (void)c.add(0xffffffffu);
      // One node plays the wait_idle waiter: a single aggregating read.
      if (w == 0) (void)c.read();
    });
  }
  Row r;
  r.prim = dist ? "counter-dist" : "counter-central";
  r.nodes = machine;
  r.actors = machine;
  r.ops = static_cast<std::uint64_t>(machine) * 2 * kAddsPerNode;
  r.elapsed = m.run();
  finish_row(r, m);
  return r;
}

// --- fadd / switch-combining rows -------------------------------------------

Row run_fadd(bench::Report& report, std::uint32_t machine, bool combining) {
  sim::MachineConfig cfg = contended(machine);
  cfg.switch_combining = combining;
  sim::Machine m(cfg);
  const std::uint32_t actors = std::min(machine, kMaxContenders);
  const auto nodes = spread_nodes(machine, actors);
  const sim::PhysAddr cell = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  m.label_memory(cell, 8, "bench.fadd");
  for (std::uint32_t w = 0; w < actors; ++w) {
    m.spawn(nodes[w], [&m, cell, w] {
      for (std::uint32_t i = 0; i < kFaddPerActor; ++i) {
        (void)m.fetch_add_u32(cell, 1);
        m.charge(((w * 29 + i * 17) % 16) * 100);
      }
    });
  }
  Row r;
  r.prim = combining ? "fadd-combine" : "fadd-port";
  r.nodes = machine;
  r.actors = actors;
  r.ops = static_cast<std::uint64_t>(actors) * kFaddPerActor;
  r.elapsed = m.run();
  finish_row(r, m);
  // Correctness: every add must land exactly once, combined or not.
  const auto v = m.peek<std::uint32_t>(cell);
  report.gate(v == r.ops, "fadd: cell must equal the number of adds");
  return r;
}

}  // namespace

int main() {
  const bool fast = bench::fast_mode();
  bench::Report report("tsync", "BENCH_sync.json");
  bench::header(
      "TSYNC", "scalable synchronization: weak scaling to 16K nodes",
      "busy-waiting steals cycles from the node that owns the lock word; "
      "at 16K nodes the 1988 primitives collapse, MCS/tree/combining hold");

  std::vector<std::uint32_t> sizes{256, 1024};
  if (!fast) {
    sizes.push_back(4096);
    sizes.push_back(16384);
  }

  std::printf("%-12s %6s %7s %8s %12s %10s %10s %10s\n", "prim", "nodes",
              "actors", "ops", "elapsed_ms", "per_op_us", "spins",
              "combined");

  // Keyed "prim/nodes" for the gate lookups below.
  std::vector<Row> rows;
  for (const std::uint32_t n : sizes) {
    rows.push_back(run_lock(n, /*mcs=*/false));
    rows.push_back(run_lock(n, /*mcs=*/true));
    rows.push_back(run_barrier(n, /*tree=*/false));
    rows.push_back(run_barrier(n, /*tree=*/true));
    rows.push_back(run_counter(n, /*dist=*/false));
    rows.push_back(run_counter(n, /*dist=*/true));
    rows.push_back(run_fadd(report, n, /*combining=*/false));
    rows.push_back(run_fadd(report, n, /*combining=*/true));
    for (std::size_t i = rows.size() - 8; i < rows.size(); ++i)
      emit(report, rows[i]);
  }

  const auto row = [&](const char* prim, std::uint32_t n) -> const Row& {
    for (const Row& r : rows)
      if (r.prim == prim && r.nodes == n) return r;
    std::fprintf(stderr, "missing row %s/%u\n", prim, n);
    std::exit(2);
  };

  // Shape report: per-op growth factors per size step (ops scale with the
  // machine for the lock/counter/fadd families, so elapsed ratios would
  // conflate workload growth with primitive cost).
  const auto ratio = [&](const char* prim, std::uint32_t lo,
                         std::uint32_t hi) {
    return row(prim, hi).per_op_us() / row(prim, lo).per_op_us();
  };
  std::printf("\ngrowth 256 -> 1024 (4x nodes):\n");
  for (const char* p : {"lock-spin", "lock-mcs", "barrier-central",
                        "barrier-tree", "counter-central", "counter-dist",
                        "fadd-port", "fadd-combine"})
    std::printf("  %-16s %6.2fx\n", p, ratio(p, 256, 1024));
  if (!fast) {
    std::printf("growth 1024 -> 16384 (16x nodes):\n");
    for (const char* p : {"barrier-central", "barrier-tree",
                          "counter-central", "counter-dist"})
      std::printf("  %-16s %6.2fx\n", p, ratio(p, 1024, 16384));
  }

  // MCS vs spin at 1K: same convoy, same critical sections; the queue
  // lock's handoffs must win (throughput >= means elapsed <=).
  report.gate(row("lock-mcs", 1024).elapsed <= row("lock-spin", 1024).elapsed,
              "MCS throughput must be >= the backoff spin lock at 1K nodes");
  // Tree barrier growth over a 4x size step: O(log n) adds one constant
  // increment (ratio -> 1); O(n) would be ~4x.  Allow 2.5x of slack.
  report.gate(ratio("barrier-tree", 256, 1024) <= 2.5,
              "tree barrier must grow O(log n), not O(n), from 256 to 1K");
  // The centralized barrier is the O(n) baseline the tree is fixing;
  // if it stops collapsing the comparison is vacuous.
  report.gate(ratio("barrier-central", 256, 1024) >= 2.0,
              "central barrier must show ~O(n) growth from 256 to 1K");
  report.gate(row("counter-dist", 1024).elapsed <=
                  row("counter-central", 1024).elapsed,
              "distributed counter must beat the central cell at 1K nodes");
  report.gate(row("fadd-combine", 1024).combined_adds > 0,
              "switch combining must engage under a contended fadd burst");
  report.gate(
      row("fadd-combine", 1024).elapsed < row("fadd-port", 1024).elapsed,
      "combining must beat port serialization at 1K nodes");

  return report.finish(
      "\nshape check: lock-spin and barrier-central per-op cost grows with\n"
      "the machine (probe pressure and O(n) arrival on one module);\n"
      "lock-mcs handoff and barrier-tree cost stay near-flat (log-depth\n"
      "wave, local-only waiting); counter-dist adds are local so the\n"
      "aggregating read is the only term that grows; fadd-combine merges\n"
      "concurrent adds at the switch so the port queue never forms.\n");
}
