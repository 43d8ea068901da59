// Machine-wide and per-node statistics gathered by the simulator.
//
// Everything here is observational: no simulated behaviour depends on these
// counters, so they can be reset mid-run to bracket a measurement region
// (the benches do exactly that).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

struct NodeStats {
  std::uint64_t local_refs = 0;    ///< references issued by this node to itself
  std::uint64_t remote_refs = 0;   ///< references issued by this node to others
  std::uint64_t serviced_remote = 0;  ///< remote refs serviced by this module
  Time stall_ns = 0;               ///< time this node's CPU spent in references
  Time queue_ns = 0;               ///< portion of stall spent waiting on busy modules
  Time compute_ns = 0;             ///< explicit compute charges
  std::uint64_t block_words = 0;   ///< words moved by block transfers
};

/// Host-side cost counters for the simulation substrate itself.  Unlike
/// NodeStats these describe the *host* machine — how many engine events,
/// context switches, and switch-free charges a run cost — and carry no
/// paper-reproduction meaning.  perfbench reports them in its `substrate`
/// section, and they never influence simulation.
struct HostPerf {
  std::uint64_t events_dispatched = 0;  ///< engine events popped and run
  std::uint64_t fiber_resumes = 0;      ///< fiber resumes dispatched
  std::uint64_t fastpath_charges = 0;   ///< charges that warped, no switch
  bool fastpath_enabled = false;
};

struct MachineStats {
  std::vector<NodeStats> node;

  // Machine-wide fault accounting (all zero unless a FaultPlan is active).
  std::uint64_t mem_faults_injected = 0;  ///< transient faults raised
  std::uint64_t dead_node_refs = 0;       ///< references that hit a dead node

  // Network fault-domain accounting (switch cards/links/partitions).
  std::uint64_t net_unreachable_refs = 0;  ///< references with no usable path
  std::uint64_t alt_routed = 0;            ///< packets detoured (+1 hop)
  std::uint64_t drops_exhausted = 0;       ///< PNC retry budgets exhausted

  // Rescue-layer accounting (bfly::rescue; zero when no detector runs).
  std::uint64_t suspects_declared = 0;   ///< dead nodes found by heartbeat loss
  std::uint64_t false_suspects = 0;      ///< accusations of nodes still alive
  std::uint64_t suspects_unreachable = 0;  ///< alive nodes flagged partitioned
  std::uint64_t unreachable_restored = 0;  ///< partitioned nodes heard again
  std::uint64_t checkpoints_taken = 0;   ///< quiesced checkpoints written
  std::uint64_t restart_count = 0;       ///< runs resumed from a checkpoint

  // Synchronization accounting (chrys::SpinLock, src/sync, the combining
  // fabric).  Machine-wide aggregates: benches and the Stats JSON no longer
  // depend on keeping every lock instance alive to read its counters.
  std::uint64_t lock_acquisitions = 0;  ///< SpinLock + McsLock acquires
  std::uint64_t lock_spins = 0;         ///< failed probes (remote or local)
  std::uint64_t barrier_episodes = 0;   ///< barrier episodes completed
  std::uint64_t combined_adds = 0;      ///< fetch-adds merged at a switch

  explicit MachineStats(std::size_t n = 0) : node(n) {}

  /// Zero every counter, keeping one NodeStats per node.
  void reset() { *this = MachineStats(node.size()); }

  /// Synchronization counters as a JSON fragment (no braces), for benches
  /// that emit one JSON object per configuration.
  std::string sync_json() const {
    json::Writer w(json::Writer::kFragment);
    w.kv("lock_acquisitions", lock_acquisitions)
        .kv("lock_spins", lock_spins)
        .kv("barrier_episodes", barrier_episodes)
        .kv("combined_adds", combined_adds);
    return w.take();
  }

  /// Fault + rescue counters as a JSON fragment (no braces), for benches
  /// that emit one JSON object per configuration.
  std::string fault_json() const {
    json::Writer w(json::Writer::kFragment);
    w.kv("mem_faults_injected", mem_faults_injected)
        .kv("dead_node_refs", dead_node_refs)
        .kv("net_unreachable_refs", net_unreachable_refs)
        .kv("alt_routed", alt_routed)
        .kv("drops_exhausted", drops_exhausted)
        .kv("suspects_declared", suspects_declared)
        .kv("false_suspects", false_suspects)
        .kv("suspects_unreachable", suspects_unreachable)
        .kv("unreachable_restored", unreachable_restored)
        .kv("checkpoints_taken", checkpoints_taken)
        .kv("restart_count", restart_count);
    return w.take();
  }

  std::uint64_t total_local_refs() const {
    std::uint64_t t = 0;
    for (const auto& s : node) t += s.local_refs;
    return t;
  }
  std::uint64_t total_remote_refs() const {
    std::uint64_t t = 0;
    for (const auto& s : node) t += s.remote_refs;
    return t;
  }
  Time total_queue_ns() const {
    Time t = 0;
    for (const auto& s : node) t += s.queue_ns;
    return t;
  }
};

}  // namespace bfly::sim
