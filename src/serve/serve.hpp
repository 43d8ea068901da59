// SERVE — replicated Bridge serving with graceful degradation.
//
// The paper's Butterfly was "rarely fully operational", and ROADMAP item 3
// asks for the serving-cluster experiment that follows from that: a block
// store that keeps answering an open-loop client population while nodes die
// mid-run.  Bridge (src/bridge) fail-replies when a stripe's server dies;
// serve turns that honest failure into continued service:
//
//   * N-way replication with hash-interleaved placement: replica r of
//     logical block b of file f lives on server (mix(f,b) + r) mod D, the
//     distributed-memory emulation trick of "Emulating a large memory with
//     a collection of smaller ones" — no directory, any client computes any
//     replica's home.  Reads go to any replica (read-any), writes to all
//     live replicas (write-all).
//   * One write rule, Gifford's weighted voting with equal weights: every
//     write carries a fresh version stamp from Bridge, and is acked only
//     when a majority of the non-dead replicas commit it, whatever made
//     the other arms fail (shed, timeout, unreachable).  A write that
//     cannot reach such a majority ships nothing.
//   * One repair rule: resync_block() is the only code that repairs a
//     block (foreground resync, and the repair worker after a death or a
//     cut).  It reads every live replica, keeps the highest version,
//     rewrites stale live replicas and relocates dead ones; Bridge never
//     lets an older stamp overwrite a newer one, so no repair reverts an
//     acked write.
//   * Excision on the crash broadcast: when a node's death is broadcast
//     (a loud kill, or bfly::rescue's verdict on a silent one), its
//     replicas are routed around immediately and its blocks are repaired
//     onto surviving servers in the background by a repair worker; the
//     redirect map the relocations build is consulted on every subsequent
//     access.
//   * Per-request deadline budget: every read/write carries a time budget;
//     inside it, failed replicas are retried with deterministic jittered
//     exponential backoff (sim::RetryPolicy); at its end the caller gets
//     kTimeout, never a hang.
//   * Tail-latency hedging: a read that has waited past a running latency
//     quantile issues a second read to another replica; first reply wins,
//     the loser is abandoned (bridge skips its data moves).  This is the
//     defence against *gray* failure — the slow-but-alive node heartbeats
//     cannot see (sim::FaultPlan::slow).
//   * Admission control: a client that finds a server's queue past
//     queue_limit sheds the request (reject-with-backpressure) instead of
//     piling on, so offered load past saturation degrades p99 instead of
//     collapsing goodput.
//   * Partition tolerance: replicas that are alive but *unreachable* (a
//     FaultPlan partition window, or all switch paths crossing dead cards)
//     are routed around, not relocated — the node is not a corpse and its
//     data will return.  The write rule needs nothing more: a client on
//     the minority side of a split gets kNoQuorum, and a write that
//     commits while a replica is cut off queues its block for repair like
//     a dead arm does.  The repair worker holds such a block until every
//     live replica is reachable from its node again, then resyncs it.  A
//     read-any may return a stale replica until then; that is reported,
//     not failed.
//
// Everything is driven by the config's seeded PRNG plus the deterministic
// engine, so a serving run — retries, hedges, sheds and all — is a pure
// function of (config, plan, program); the Instant Replay harness holds
// with serve enabled (tests/serve/chaos_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bridge/bridge.hpp"
#include "rescue/rescue.hpp"

namespace bfly::serve {

struct ServeConfig {
  /// Replicas per block.  Grounded in the replicant-opera storage-sim
  /// default of 3; must be >= 1 and <= the Bridge server count.
  std::uint32_t replicas = 3;
  /// Per-request time budget: reads and writes return kTimeout rather than
  /// outlive it.  Zero is rejected — a serving layer without deadlines is
  /// just Bridge.
  sim::Time deadline = 400 * sim::kMillisecond;
  /// Retry engine for failed/shed replicas: bounded exponential backoff
  /// with deterministic jitter (attempts, base, cap, jitter).
  sim::RetryPolicy retry{4, 1 * sim::kMillisecond, 32 * sim::kMillisecond,
                         0.5};
  /// Hedge a read once it has waited past the 90th percentile of the last
  /// 64 read latencies (floored by hedge_floor).
  bool hedge_reads = true;
  sim::Time hedge_floor = 30 * sim::kMillisecond;
  /// Samples required before the percentile is trusted (hedge_floor rules
  /// until then).
  std::uint32_t min_hedge_samples = 8;
  /// Admission control: a server whose queue (incl. the request being
  /// served) is at least this deep sheds the incoming request.
  std::size_t queue_limit = 12;
  /// Seed for the layer's private RNG (replica choice, retry jitter).
  std::uint64_t seed = 0x5e7e5e7eULL;
};

enum class Status {
  kOk,
  kTimeout,    ///< deadline budget exhausted
  kShed,       ///< retries exhausted, every candidate was shedding load
  kNoReplica,  ///< retries exhausted, no live replica could serve
  kNoQuorum,   ///< no majority of the non-dead replicas committed, and
               ///< some were unreachable (the minority side of a cut)
};

/// Host-side counters of one ReplicatedFs (read them with counters()).
struct ServeCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t sheds = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rereplications = 0;
  std::uint64_t failed_replicas = 0;  ///< write arms lost to dead servers
  std::uint64_t lost_blocks = 0;      ///< blocks repair left below strength
  std::uint64_t quorum_rejects = 0;   ///< writes refused on the minority side
  std::uint64_t reconciled = 0;       ///< replicas the repair worker rewrote
                                      ///< in place
  std::uint64_t repaired_blocks = 0;  ///< blocks the repair worker resynced

  /// The serving counters as a braceless JSON fragment (serve_* keys), for
  /// bench rows that append it after sim::MachineStats::fault_json().
  std::string json() const {
    sim::json::Writer w(sim::json::Writer::kFragment);
    w.kv("serve_retries", retries)
        .kv("serve_hedges", hedges)
        .kv("serve_hedge_wins", hedge_wins)
        .kv("serve_sheds", sheds)
        .kv("serve_timeouts", timeouts)
        .kv("serve_rereplications", rereplications)
        .kv("serve_quorum_rejects", quorum_rejects)
        .kv("serve_reconciled", reconciled);
    return w.take();
  }
};

/// The hedge window: the last `size` read latencies, kept twice — in
/// arrival order (a ring, to know which sample the next one evicts) and
/// sorted (so a quantile is one index).  record() erases the evicted value
/// and inserts the new one with binary searches, so it costs O(size) moves
/// of plain words and quantile() costs O(1).
class LatencyWindow {
 public:
  /// `size` >= 1.
  explicit LatencyWindow(std::uint32_t size) : ring_(size) {}

  void record(sim::Time t) {
    if (sorted_.size() == ring_.size())
      sorted_.erase(
          std::lower_bound(sorted_.begin(), sorted_.end(), ring_[next_]));
    ring_[next_] = t;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), t), t);
  }

  /// Samples in the window (at most its size).
  std::size_t count() const { return sorted_.size(); }

  /// The sample at rank floor(q * (count() - 1)) of the window in ascending
  /// order.  Requires count() > 0 and q in [0, 1].
  sim::Time quantile(double q) const {
    return sorted_[static_cast<std::size_t>(
        q * static_cast<double>(sorted_.size() - 1))];
  }

 private:
  std::vector<sim::Time> ring_;
  std::vector<sim::Time> sorted_;
  std::size_t next_ = 0;  ///< ring slot the next sample overwrites
};

class ReplicatedFs {
 public:
  /// Layer over an existing BridgeFs.  Must be constructed from a
  /// Chrysalis process context or before run(); registers a crash observer
  /// it removes on destruction, and that observer is how every death
  /// reaches it: a loud kill, or a failure detector's verdict on a silent
  /// one (rescue::Membership broadcasts it; nothing to wire).
  // The Membership parameter is unused; perfbench still passes one.
  ReplicatedFs(chrys::Kernel& k, bridge::BridgeFs& fs,
               rescue::Membership* = nullptr, ServeConfig cfg = {});
  ~ReplicatedFs();

  ReplicatedFs(const ReplicatedFs&) = delete;
  ReplicatedFs& operator=(const ReplicatedFs&) = delete;

  /// Create (or reopen, after a restart) a replicated file.  `max_blocks`
  /// caps the logical block count — repair slots are allocated above it, so
  /// it is a hard limit, not a hint.
  bridge::FileId open(const std::string& name, std::uint32_t max_blocks);

  /// Logical blocks written so far.
  std::uint32_t blocks(bridge::FileId f) const { return nlogical_[f]; }

  /// Replicated block ops with deadline, retries, hedging and admission
  /// control.  kBlockSize bytes move per call.
  Status read(bridge::FileId f, std::uint32_t b, void* out);
  Status write(bridge::FileId f, std::uint32_t b, const void* data);

  // --- Repair ------------------------------------------------------------
  /// Launch the background repair worker on `node` (a Chrysalis process).
  void start_repair(sim::NodeId node);
  /// Ask the worker to exit once its queue drains, then block (on a
  /// Chrysalis process) until it has — the worker reads this object, so a
  /// teardown that outruns it is a use-after-free.  Skips waiting when the
  /// worker's node has been killed.  Blocks still waiting for a cut to heal
  /// stay queued for a later worker.  While any wait, the worker wakes
  /// every retry cap, so a run whose cut never heals ends only here.
  void stop_repair();
  /// True when no repair jobs are queued, in progress or waiting for a cut
  /// to heal.
  bool repair_idle() const { return pending_repairs_ == 0; }

  /// Foreground convergence pass: resync_block() over every block of `f`.
  /// Returns the number of replicas rewritten in place.  This is the
  /// restart path: a rebooted machine reloads Bridge's stable store,
  /// versions included, but blocks written while a replica's server was
  /// dead are stale there until resync.
  std::uint32_t resync(bridge::FileId f);

  /// Repair one block: the one routine behind resync() and the repair
  /// worker.  Read every live replica, keep the one with the
  /// highest version (ties to the lowest replica), rewrite in place each
  /// live replica that differs from it or could not be read, and relocate
  /// each dead one, all stamped with the winner's version.  A write that
  /// lands after its read here carries a higher version, so the rewrite
  /// leaves it in place: an acked write holds on a majority, the reads see
  /// a copy of it, and nothing older replaces it.  With nothing readable
  /// the block goes to the repair worker.  Returns the in-place installs (a
  /// rewrite a newer write outranked is not one; relocations count in
  /// rereplications).
  std::uint32_t resync_block(bridge::FileId f, std::uint32_t b);

  const ServeCounters& counters() const { return counters_; }
  /// Live replicas of block b (for tests asserting convergence to N).
  std::uint32_t live_replicas(bridge::FileId f, std::uint32_t b) const;
  /// Server index holding replica r of (f, b), redirects applied — lets
  /// benches and tests compute which side of a partition a block's
  /// majority lands on.
  std::uint32_t replica_server(bridge::FileId f, std::uint32_t b,
                               std::uint32_t r) const {
    return server_of_replica(f, b, r);
  }

 private:
  struct RepairJob {
    bridge::FileId file = 0;
    std::uint32_t block = 0;
    std::uint32_t tries = 0;  ///< failed attempts so far (bounded)
  };

  static std::uint64_t mix(std::uint64_t f, std::uint64_t b);
  /// Key of replica r of (f, b); key(f, b) keys the block.
  static std::uint64_t key(bridge::FileId f, std::uint32_t b,
                           std::uint32_t r = 0) {
    return (static_cast<std::uint64_t>(f) << 40) |
           (static_cast<std::uint64_t>(b) << 8) | r;
  }
  /// Physical Bridge block index replica r of (f, b) lives at (redirects
  /// applied).
  std::uint32_t phys_index(bridge::FileId f, std::uint32_t b,
                           std::uint32_t r) const;
  std::uint32_t server_of_replica(bridge::FileId f, std::uint32_t b,
                                  std::uint32_t r) const {
    return fs_.server_of(phys_index(f, b, r));
  }
  bool replica_alive(bridge::FileId f, std::uint32_t b,
                     std::uint32_t r) const {
    return fs_.server_alive(server_of_replica(f, b, r));
  }
  /// Alive *and* the switch can carry a reference from the calling
  /// process's node to the replica's server.  Must run in process context.
  bool replica_reachable(bridge::FileId f, std::uint32_t b,
                         std::uint32_t r) const {
    const std::uint32_t s = server_of_replica(f, b, r);
    return fs_.server_alive(s) &&
           m_.reachable(m_.current_node(), fs_.server_node(s));
  }
  /// Some live replica of (f, b) is unreachable from the calling process's
  /// node: a repair now would miss it.
  bool behind_cut(bridge::FileId f, std::uint32_t b) const;
  /// The 90th percentile of recent read latencies, floored by hedge_floor
  /// (and just the floor until min_hedge_samples reads have succeeded).
  sim::Time hedge_threshold() const;
  void queue_repairs_for_node(sim::NodeId n);
  /// Queue block (f, b) for the repair worker (idempotent while queued).
  void queue_repair(bridge::FileId f, std::uint32_t b);
  /// Put `job` in a free job slot and hand the slot to the worker.
  void enqueue_repair(const RepairJob& job);
  void repair_loop();
  /// Move dead replica r of (f, b) to the first live server, in hash
  /// rotation order from its home, that holds no other replica: write
  /// `data` stamped `version` into a fresh repair slot there and redirect
  /// the replica to it.  Leaves it dead if no server takes the copy.
  void relocate(bridge::FileId f, std::uint32_t b, std::uint32_t r,
                const void* data, std::uint64_t version);
  /// Settle an outstanding async arm before its reply queue is deleted:
  /// abandon it, or free the slot of one whose reply raced in.
  void settle(std::uint32_t rid);
  /// Admission control: false (and a shed, charged kShedCost) when server
  /// `s` already holds queue_limit requests.
  bool admit(std::uint32_t s);

  chrys::Kernel& k_;
  sim::Machine& m_;
  bridge::BridgeFs& fs_;
  ServeConfig cfg_;
  sim::Rng rng_;

  std::vector<std::uint32_t> nlogical_;     // per file: logical blocks
  std::vector<std::uint32_t> max_blocks_;   // per file: logical capacity
  std::vector<std::uint32_t> repair_next_;  // per file: next repair slot
  // (f,b,r) -> physical index, for replicas moved by repair.
  std::unordered_map<std::uint64_t, std::uint32_t> redirect_;

  // Recent successful read latencies, for the hedge quantile estimate.
  LatencyWindow latencies_;

  // Repair machinery.
  std::vector<RepairJob> repair_jobs_;      // host-side job slots
  std::vector<std::uint32_t> repair_free_;
  // (f,b) keys of blocks queued, waiting or being repaired — dedups the
  // excise sweep against per-write dead and cut-off arm discoveries.
  std::unordered_set<std::uint64_t> repair_inflight_;
  chrys::Oid repair_dq_ = chrys::kNoObject;
  std::uint32_t pending_repairs_ = 0;
  bool repair_running_ = false;
  bool repair_stopping_ = false;
  sim::NodeId repair_node_ = 0;  ///< where the worker runs, for the join

  ServeCounters counters_;
  std::uint64_t crash_observer_ = 0;
};

}  // namespace bfly::serve
