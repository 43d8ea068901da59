// RESCUE — proactive failure detection for the simulated Butterfly.
//
// The paper's machines were "rarely fully operational": nodes died and the
// software had to keep going.  The packages in this repo already tolerate
// *loud* deaths (the machine-check broadcast fires their crash observers),
// but a silently failed node — one that just stops responding — is only
// noticed when somebody touches the corpse.  A Uniform System run whose
// dead node held no data touched by any peer would block in wait_idle
// forever.
//
// Membership closes that hole with the classic heartbeat/watchdog scheme,
// built from the same Chrysalis primitives application code uses:
//
//   * one daemon process per node increments a per-node heartbeat word in
//     the monitor node's memory every heartbeat_period (a remote write,
//     charged across the simulated switch like any other reference);
//   * a watchdog process on the monitor node scans the words every period
//     (local charged reads); a node whose word has not moved for
//     suspect_after simulated time is *suspected*;
//   * a suspicion against a node that is in fact alive is checked against
//     the switch: if the monitor can still reach it the accusation is a
//     *false suspect* and ignored — the detector may be wrong and must
//     never disturb the living;
//   * a stale node that is alive but *unreachable* (a partition window or
//     dead switch hardware between it and the monitor) is not excised: it
//     enters the suspected_unreachable state — still a member, flagged for
//     routing-around — and is restored when its heartbeats resume.  Both
//     transitions bump the epoch, so a healed minority holding a stale
//     view is fenced: any decision tagged with the old epoch is refusable;
//   * a confirmed suspicion bumps the membership epoch, appends to the
//     suspicion history, publishes the new epoch to a shared-memory cell,
//     and broadcasts the crash (sim::Machine::broadcast_crash): every
//     recovery layer on the machine (Uniform System, net::Mesh, Bridge,
//     serve) hears a silent death through its crash observer, exactly as
//     it hears a loud one.  There is nothing to wire.
//
// A transient memory fault is not an accusation.  Every layer retries one
// through sim::Machine::retry: bounded (6 tries, exponential backoff) for
// the Uniform System's and net::Stream's infrastructure words, forever at
// the probe interval for the sync lock and barrier words and the spin-lock
// release, whose waiters would otherwise wedge.  A fault that outlasts a
// bounded retry comes from a flaky module on a live node, so nothing feeds
// it to denounce(): that could only book a false suspect.  (DESIGN.md §4a.)
#pragma once

#include <cstdint>
#include <vector>

#include "chrysalis/kernel.hpp"

namespace bfly::rescue {

struct RescueConfig {
  /// How often each node's daemon refreshes its heartbeat word.
  sim::Time heartbeat_period = 2 * sim::kMillisecond;
  /// Staleness after which the watchdog suspects a node.  Must comfortably
  /// exceed heartbeat_period or healthy nodes get (false-)suspected.
  sim::Time suspect_after = 8 * sim::kMillisecond;
  /// Node whose memory holds the heartbeat words and runs the watchdog.
  /// Pick a lightly-loaded node: heartbeat reads queue at this node's
  /// memory module like any other reference, so co-locating the monitor
  /// with a contended structure (the US work queue lives on node 0)
  /// delays detection by however deep that queue runs.
  sim::NodeId monitor_node = 0;
};

/// One entry per declared suspicion, oldest first.
struct Suspicion {
  sim::NodeId node = 0;
  sim::Time at = 0;          ///< simulated time of the declaration
  std::uint64_t epoch = 0;   ///< membership epoch it created
};

class Membership {
 public:
  /// Allocates the heartbeat words.  Call start() from a Chrysalis process
  /// to launch the daemons; a Membership that is never started charges
  /// nothing (zero overhead when rescue is off).
  Membership(chrys::Kernel& k, RescueConfig cfg = {});

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Launch one heartbeat daemon per (live) node plus the watchdog.  Must
  /// be called from a Chrysalis process.
  void start();
  /// Stop the service and *join* it: flags the daemons, then blocks (must
  /// be on a Chrysalis process) until every daemon on a live node has
  /// exited, so no heartbeat fiber can run after this object — or the
  /// caller's stack frame — is gone.  Daemons on killed nodes never wake
  /// and are not waited for.  Call before the main process returns or
  /// run() never drains.
  void stop();

  /// Accuse a node directly: checked against ground truth immediately — a
  /// live accusee is a false suspect, a dead one is declared without
  /// waiting for the heartbeat timeout.
  void denounce(sim::NodeId n);

  /// Is the node in the current membership view?  An unreachable node is
  /// still a member — partitions are expected to heal; only death excises.
  bool member(sim::NodeId n) const { return n < member_.size() && member_[n]; }
  /// Is the node in the suspected_unreachable state (alive, a member, but
  /// the monitor cannot reach it across the switch)?
  bool unreachable(sim::NodeId n) const {
    return n < unreachable_.size() && unreachable_[n];
  }
  /// Members currently flagged suspected_unreachable.
  std::uint32_t members_unreachable() const { return members_unreachable_; }
  /// Members remaining in the current view.
  std::uint32_t members_alive() const { return members_alive_; }
  /// Bumped once per view change: a declared suspicion, and a member
  /// entering or leaving suspected_unreachable.
  std::uint64_t epoch() const { return epoch_; }
  const std::vector<Suspicion>& history() const { return history_; }
  /// Shared-memory cell (on the monitor node) holding the current epoch:
  /// application tasks can poll it cheaply to learn the view changed.
  sim::PhysAddr epoch_cell() const { return epoch_cell_; }

  /// First suspicion declared against `n`, or 0 if none (for benches
  /// measuring time-to-detect).
  sim::Time suspected_at(sim::NodeId n) const;

 private:
  void daemon_loop(sim::NodeId n);
  void watchdog_loop();
  void declare_suspect(sim::NodeId n);
  void mark_unreachable(sim::NodeId n);
  void mark_restored(sim::NodeId n);
  void publish_epoch();

  chrys::Kernel& k_;
  sim::Machine& m_;
  RescueConfig cfg_;
  sim::PhysAddr hb_base_{};    // nodes() heartbeat words on monitor_node
  sim::PhysAddr epoch_cell_{}; // published epoch, on monitor_node
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::uint8_t> daemon_up_;  ///< per-node daemon still running
  bool watchdog_up_ = false;
  std::vector<std::uint8_t> member_;
  std::vector<std::uint8_t> unreachable_;  ///< suspected_unreachable flags
  std::uint32_t members_alive_ = 0;
  std::uint32_t members_unreachable_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<Suspicion> history_;
  // Watchdog bookkeeping (host-side; the charged work is the word reads).
  std::vector<std::uint32_t> last_seq_;
  std::vector<sim::Time> last_move_;
};

}  // namespace bfly::rescue
