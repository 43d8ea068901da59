// Deterministic fault injection for the simulated Butterfly.
//
// The paper is blunt about the hardware: a 128-node Butterfly-I was rarely
// fully operational.  Nodes died, memory boards went bad, and the systems
// software ran on whatever subset of the machine survived the morning's
// diagnostics.  A FaultPlan lets a test or bench script that experience:
//
//   * kill a node at simulated time T — its fibers stop being scheduled
//     (their stacks unwind cleanly) and references to its memory module
//     raise NodeDeadError;
//   * inject transient memory faults (parity errors) on timed references
//     with a configurable probability;
//   * drop or delay switch packets, modelled as extra latency (a dropped
//     packet is retried by the PNC after a timeout, up to max_drop_retries);
//   * kill a switch card or backplane link at time T — routes detour through
//     the redundant column for one extra hop, and references with no healthy
//     path raise NetUnreachableError;
//   * partition the machine into two sides for [start, heal) — cross-cut
//     references raise NetUnreachableError until the cut heals.
//
// Everything is driven by the plan's own seeded RNG, so a run remains a
// pure function of (config, plan, program) and Instant Replay determinism
// is preserved.  An empty plan is free: no fault RNG draw ever happens and
// the event stream is byte-identical to a machine built without one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

/// Raised on simulated machine faults (bad address, out of memory, ...).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A timed reference (or allocation) targeted a node that has been killed.
class NodeDeadError : public SimError {
 public:
  explicit NodeDeadError(NodeId node)
      : SimError("reference to dead node " + std::to_string(node)),
        node_(node) {}
  NodeId node() const { return node_; }

 private:
  NodeId node_;
};

/// A timed reference could not be routed: every path between requester and
/// home node is severed (dead switch cards/links on all candidate columns,
/// a partition window, or the PNC exhausting its drop-retry budget).  The
/// target node itself may be perfectly healthy — this is the network's
/// failure, distinct from NodeDeadError — so layers above should treat the
/// peer as *unreachable* (may come back) rather than dead (never will).
/// The PNC's futile retries are charged before the throw.
class NetUnreachableError : public SimError {
 public:
  NetUnreachableError(NodeId src, NodeId dst, const std::string& why,
                      Time wasted = 0)
      : SimError("node " + std::to_string(dst) + " unreachable from " +
                 std::to_string(src) + " (" + why + ")"),
        src_(src),
        dst_(dst),
        wasted_(wasted) {}
  NodeId src() const { return src_; }
  /// The unreachable peer (symmetric with NodeDeadError::node()).
  NodeId node() const { return dst_; }
  /// Time the PNC burned on futile retries; the machine charges it to the
  /// requester before the error surfaces.
  Time wasted() const { return wasted_; }

 private:
  NodeId src_;
  NodeId dst_;
  Time wasted_;
};

/// A timed reference suffered a transient (parity-style) memory fault.  The
/// reference's time was charged but no data moved; the operation may simply
/// be retried.
class MemoryFaultError : public SimError {
 public:
  explicit MemoryFaultError(NodeId node)
      : SimError("transient memory fault on node " + std::to_string(node)),
        node_(node) {}
  NodeId node() const { return node_; }

 private:
  NodeId node_;
};

/// A retry schedule: how many tries and how long to back off between them.
/// Machine::retry runs a memory operation under one after transient faults
/// (DESIGN.md, fault model, says which layers use which schedule); serve
/// uses one, jittered, for whole requests.  The default is bounded
/// exponential backoff; forever() retries at a fixed interval.
struct RetryPolicy {
  /// `attempts` value that never runs out.
  static constexpr std::uint32_t kUnbounded = 0xffffffffu;

  /// Total tries (first attempt included).  Must be >= 1.
  std::uint32_t attempts = 6;
  /// Backoff charged before the second try; doubles per retry.
  Time base = 50 * kMicrosecond;
  /// Backoff ceiling.
  Time cap = 5 * kMillisecond;
  /// Jitter fraction in [0, 1): each backoff is drawn uniformly from
  /// [b*(1-jitter), b] where b is the deterministic schedule.  Zero keeps
  /// the legacy fixed schedule and draws nothing from the caller's RNG, so
  /// existing users stay byte-identical.
  double jitter = 0.0;

  /// Retry without end, `interval` apart (0: back to back, uncharged).
  static RetryPolicy forever(Time interval) {
    return RetryPolicy{kUnbounded, interval, interval, 0.0};
  }

  /// Backoff to charge after failed attempt number `attempt` (0-based).
  Time backoff(std::uint32_t attempt) const {
    Time b = base;
    for (std::uint32_t i = 0; i < attempt && b < cap; ++i) b *= 2;
    return b < cap ? b : cap;
  }

  /// Jittered backoff: the fixed schedule spread downward by up to
  /// `jitter` so concurrent retriers decorrelate instead of stampeding in
  /// lockstep.  Deterministic given the caller's seeded RNG state.
  Time backoff_jittered(std::uint32_t attempt, Rng& rng) const {
    const Time b = backoff(attempt);
    if (jitter <= 0.0) return b;
    const double spread = static_cast<double>(b) * jitter;
    return b - static_cast<Time>(spread * rng.uniform());
  }
};

/// A script of hardware failures, applied by Machine.  Reproducible: two
/// machines built from the same (config, plan) observe identical faults.
struct FaultPlan {
  struct NodeKill {
    NodeId node = 0;
    Time at = 0;
    /// A silent kill leaves the node catatonic without the machine-check
    /// broadcast peers normally observe: no crash observer fires, so the
    /// death is only discoverable by touching the corpse or by a failure
    /// detector noticing the missing heartbeats (bfly::rescue).
    bool silent = false;
  };

  /// Gray failure: the node answers, but slowly.  Within [from, until) every
  /// memory-module service on the node (and Bridge's disk service, which
  /// shares the controller) is stretched by `factor`.  This is the failure
  /// mode heartbeats cannot see — the node still acks — so it is what
  /// hedged reads exist to beat.
  struct SlowNode {
    NodeId node = 0;
    Time from = 0;
    Time until = 0;
    double factor = 1.0;
  };

  /// A switch card (one 4x4 crossbar) dies at `at` and stays dead for the
  /// run — the fault domain real Butterflies shipped an extra switch column
  /// to survive.  Card `card` of stage `stage` owns output wires
  /// [card*4, card*4+4) of that stage.  Alternate-path routing detours
  /// around a dead card in any non-final stage for +1 hop; a dead
  /// final-stage card severs its four destination nodes (the last column
  /// is wired straight into the memory modules).
  struct CardFail {
    std::uint32_t stage = 0;
    std::uint32_t card = 0;
    Time at = 0;
  };

  /// A single output wire (backplane link) of a stage dies at `at`.  Finer
  /// grain than a card: only routes crossing that wire detour.
  struct LinkFail {
    std::uint32_t stage = 0;
    std::uint32_t link = 0;
    Time at = 0;
  };

  /// A clean bisection of the machine for [start, heal): every reference
  /// between a node in side_a and a node in side_b raises
  /// NetUnreachableError (after the PNC's charged retry budget).  Nodes on
  /// neither side keep full connectivity to both.  Unlike kills, a
  /// partition heals: at `heal` cross-cut traffic flows again.  Nothing is
  /// announced; a layer that routed around the cut checks reachability
  /// again to find it closed.
  struct Partition {
    std::vector<NodeId> side_a;
    std::vector<NodeId> side_b;
    Time start = 0;
    Time heal = 0;
  };

  /// Nodes to kill and when.  Kills are permanent for the run.
  std::vector<NodeKill> node_kills;

  /// Persistent switch-card / link deaths and partition windows.
  std::vector<CardFail> card_fails;
  std::vector<LinkFail> link_fails;
  std::vector<Partition> partitions;

  /// Slow-node windows.  Validated like kills; windows on the same node
  /// must not overlap (two factors at one instant would be ambiguous).
  std::vector<SlowNode> slow_nodes;

  /// Probability that one timed single-word reference suffers a transient
  /// memory fault (MemoryFaultError after the time is charged).
  double mem_fault_prob = 0.0;

  /// Probability that one switch packet is dropped.  A drop is modelled as
  /// the PNC's retry: the packet re-enters the network after drop_retry_ns.
  double packet_drop_prob = 0.0;
  Time drop_retry_ns = 100 * kMicrosecond;

  /// PNC retry budget per packet: after this many consecutive drops the
  /// reference fails with NetUnreachableError instead of retrying forever
  /// (as packet_drop_prob -> 1 an unbounded loop never terminates).  The
  /// same budget prices the futile retries charged for a reference into a
  /// partition.  Must be >= 1.
  std::uint32_t max_drop_retries = 16;

  /// Probability that one switch packet is delayed by packet_delay_ns
  /// (models a congested or flaky switch card).
  double packet_delay_prob = 0.0;
  Time packet_delay_ns = 50 * kMicrosecond;

  /// Seed for the plan's private RNG (never shared with Machine's RNG).
  std::uint64_t seed = 0xb1f7fa17ULL;

  FaultPlan& kill(NodeId node, Time at) { return add_kill(node, at, false); }

  /// Kill without the machine-check broadcast: recovery layers hear nothing
  /// until a heartbeat watchdog (or a reference into the corpse) notices.
  FaultPlan& kill_silent(NodeId node, Time at) {
    return add_kill(node, at, true);
  }

  /// Degrade `node` for [from, until): every module service there takes
  /// `factor` times as long.  Validated immediately, like kill().
  FaultPlan& slow(NodeId node, Time from, Time until, double factor) {
    slow_nodes.push_back(SlowNode{node, from, until, factor});
    try {
      validate();
    } catch (...) {
      slow_nodes.pop_back();
      throw;
    }
    return *this;
  }

  /// Kill switch card `card` of stage `stage` at `at`.  Stage/card bounds
  /// depend on machine geometry, so Machine checks them at construction.
  FaultPlan& fail_card(std::uint32_t stage, std::uint32_t card, Time at) {
    card_fails.push_back(CardFail{stage, card, at});
    try {
      validate();
    } catch (...) {
      card_fails.pop_back();
      throw;
    }
    return *this;
  }

  /// Kill output wire `link` of stage `stage` at `at`.
  FaultPlan& fail_link(std::uint32_t stage, std::uint32_t link, Time at) {
    link_fails.push_back(LinkFail{stage, link, at});
    try {
      validate();
    } catch (...) {
      link_fails.pop_back();
      throw;
    }
    return *this;
  }

  /// Partition the machine into side_a | side_b for [start, heal).
  FaultPlan& partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b,
                       Time start, Time heal) {
    partitions.push_back(
        Partition{std::move(side_a), std::move(side_b), start, heal});
    try {
      validate();
    } catch (...) {
      partitions.pop_back();
      throw;
    }
    return *this;
  }

  /// Invariants every kill list must satisfy; Machine re-validates the whole
  /// vector at construction so hand-built lists get the same errors as ones
  /// assembled through kill()/kill_silent().
  void validate() const {
    for (std::size_t i = 0; i < node_kills.size(); ++i) {
      const NodeKill& k = node_kills[i];
      if (k.at == 0)
        throw SimError("FaultPlan: kill of node " + std::to_string(k.node) +
                       " at Time 0 — the machine must come up before it can "
                       "fail; use any nonzero time");
      for (std::size_t j = 0; j < i; ++j)
        if (node_kills[j].node == k.node)
          throw SimError("FaultPlan: duplicate kill of node " +
                         std::to_string(k.node) + " (kills are permanent; "
                         "a node can only die once)");
    }
    for (std::size_t i = 0; i < slow_nodes.size(); ++i) {
      const SlowNode& s = slow_nodes[i];
      if (s.factor < 1.0)
        throw SimError("FaultPlan: slow-node factor " +
                       std::to_string(s.factor) + " on node " +
                       std::to_string(s.node) +
                       " — a gray failure slows a node down, factor >= 1");
      if (s.from == 0)
        throw SimError("FaultPlan: slow window on node " +
                       std::to_string(s.node) +
                       " starting at Time 0 — the machine must come up "
                       "healthy; use any nonzero time");
      if (s.until <= s.from)
        throw SimError("FaultPlan: empty slow window on node " +
                       std::to_string(s.node) + " (until must exceed from)");
      for (std::size_t j = 0; j < i; ++j) {
        const SlowNode& o = slow_nodes[j];
        if (o.node == s.node && s.from < o.until && o.from < s.until)
          throw SimError("FaultPlan: overlapping slow windows on node " +
                         std::to_string(s.node) +
                         " — one factor at a time per node");
      }
    }
    if (max_drop_retries == 0)
      throw SimError("FaultPlan: max_drop_retries must be >= 1 (the PNC "
                     "always sends the packet at least once)");
    for (std::size_t i = 0; i < card_fails.size(); ++i) {
      const CardFail& c = card_fails[i];
      if (c.at == 0)
        throw SimError("FaultPlan: card fail at Time 0 — the machine must "
                       "come up before it can fail; use any nonzero time");
      for (std::size_t j = 0; j < i; ++j)
        if (card_fails[j].stage == c.stage && card_fails[j].card == c.card)
          throw SimError("FaultPlan: duplicate fail of switch card " +
                         std::to_string(c.card) + " at stage " +
                         std::to_string(c.stage) +
                         " (card deaths are permanent)");
    }
    for (std::size_t i = 0; i < link_fails.size(); ++i) {
      const LinkFail& l = link_fails[i];
      if (l.at == 0)
        throw SimError("FaultPlan: link fail at Time 0 — the machine must "
                       "come up before it can fail; use any nonzero time");
      for (std::size_t j = 0; j < i; ++j)
        if (link_fails[j].stage == l.stage && link_fails[j].link == l.link)
          throw SimError("FaultPlan: duplicate fail of link " +
                         std::to_string(l.link) + " at stage " +
                         std::to_string(l.stage) +
                         " (link deaths are permanent)");
    }
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      const Partition& p = partitions[i];
      if (p.side_a.empty() || p.side_b.empty())
        throw SimError("FaultPlan: partition with an empty side — a cut "
                       "needs nodes on both sides");
      if (p.start == 0)
        throw SimError("FaultPlan: partition starting at Time 0 — the "
                       "machine must come up connected; use any nonzero "
                       "start");
      if (p.heal <= p.start)
        throw SimError("FaultPlan: ill-ordered partition window [" +
                       std::to_string(p.start) + ", " +
                       std::to_string(p.heal) +
                       ") — heal must come after start");
      for (NodeId a : p.side_a)
        for (NodeId b : p.side_b)
          if (a == b)
            throw SimError("FaultPlan: node " + std::to_string(a) +
                           " listed on both sides of a partition — a node "
                           "cannot be cut off from itself");
      for (std::size_t j = 0; j < i; ++j) {
        const Partition& o = partitions[j];
        if (p.start < o.heal && o.start < p.heal)
          throw SimError("FaultPlan: overlapping partition windows — two "
                         "simultaneous cuts would make reachability "
                         "ambiguous; serialize them");
      }
    }
  }

  bool any() const {
    return !node_kills.empty() || !slow_nodes.empty() ||
           !card_fails.empty() || !link_fails.empty() ||
           !partitions.empty() || mem_fault_prob > 0.0 ||
           packet_drop_prob > 0.0 || packet_delay_prob > 0.0;
  }

 private:
  FaultPlan& add_kill(NodeId node, Time at, bool silent) {
    node_kills.push_back(NodeKill{node, at, silent});
    try {
      validate();  // reject duplicate / Time-0 kills at the call site
    } catch (...) {
      node_kills.pop_back();  // a rejected kill must not linger in the plan
      throw;
    }
    return *this;
  }
};

}  // namespace bfly::sim
