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
//   * Epoch-driven excision: when bfly::rescue suspects a node, its
//     replicas are routed around immediately and re-replicated onto
//     surviving servers in the background by a repair worker; the redirect
//     map the repairs build is consulted on every subsequent access.
//   * Per-request deadline budget: every read/write carries a time budget;
//     inside it, failed replicas are retried with deterministic jittered
//     exponential backoff (rescue::RetryPolicy); at its end the caller gets
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
//     are routed around, not repaired — the node is not a corpse and its
//     data will return.  Write-all degrades to majority-quorum: with any
//     unreachable arm, an ack requires commits on a majority of the
//     non-dead replicas, so a client on the minority side of a split gets
//     kNoQuorum instead of a split-brain ack.  Every ack taken with an
//     unreachable arm logs that arm in a dirty log; when the machine's
//     partition heals, the repair worker replays the log through
//     resync_block()'s majority vote, converging the stale side.  With no
//     unreachable arms the legacy any-commit ack is unchanged.
//
// Everything is driven by the config's seeded PRNG plus the deterministic
// engine, so a serving run — retries, hedges, sheds and all — is a pure
// function of (config, plan, program); the Instant Replay harness holds
// with serve enabled (tests/serve/chaos_test.cpp).
#pragma once

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
  rescue::RetryPolicy retry{4, 1 * sim::kMillisecond, 32 * sim::kMillisecond,
                            0.5};
  /// Hedge a read once it has waited past the hedge_quantile of recent
  /// read latencies (floored by hedge_floor).
  bool hedge_reads = true;
  double hedge_quantile = 0.9;
  sim::Time hedge_floor = 30 * sim::kMillisecond;
  /// Ring of recent read latencies the quantile is estimated from, and the
  /// samples required before the estimate is trusted (hedge_floor rules
  /// until then).
  std::uint32_t hedge_window = 64;
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
  kNoQuorum,   ///< partition: a majority of non-dead replicas is unreachable
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
  std::uint64_t lost_blocks = 0;      ///< repairs with no surviving replica
  std::uint64_t quorum_rejects = 0;   ///< writes refused on the minority side
  std::uint64_t dirty_logged = 0;     ///< replica arms logged for heal-time fix
  std::uint64_t reconciled = 0;       ///< blocks re-converged after a heal

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
        .kv("serve_dirty_logged", dirty_logged)
        .kv("serve_reconciled", reconciled);
    return w.take();
  }
};

class ReplicatedFs {
 public:
  /// Layer over an existing BridgeFs.  `mem` wires suspicion-driven
  /// excision (may be null: loud kills still excise via the crash
  /// broadcast).  Must be constructed from a Chrysalis process context or
  /// before run(); registers a crash observer it removes on destruction.
  ReplicatedFs(chrys::Kernel& k, bridge::BridgeFs& fs,
               rescue::Membership* mem = nullptr, ServeConfig cfg = {});
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
  /// worker's node has been killed.
  void stop_repair();
  /// True when no repair jobs are queued or in progress.
  bool repair_idle() const { return pending_repairs_ == 0; }

  /// Route around a dead node now and queue re-replication of everything it
  /// held.  Wired to rescue::Membership when one is attached; loud kills
  /// arrive automatically via the crash broadcast.  No-op for live nodes.
  void excise_node(sim::NodeId n);

  /// Foreground convergence pass: re-reads every replica of every block of
  /// `f`, votes on the canonical content (majority, ties to the lowest
  /// replica), and rewrites divergent or unreadable replicas.  Returns the
  /// number of replicas rewritten.  This is the restart path: a rebooted
  /// machine reloads Bridge's stable store, but blocks written while a
  /// replica's server was dead are stale there until resync.
  std::uint32_t resync(bridge::FileId f);

  /// One block of resync(): read every live replica, majority-vote the
  /// canonical content (ties to the lowest replica), rewrite divergent
  /// replicas.  Returns replicas rewritten.  This is also the heal-time
  /// reconciliation primitive the dirty log is replayed through.
  std::uint32_t resync_block(bridge::FileId f, std::uint32_t b);

  /// Dirty-log entries awaiting heal-time reconciliation (for tests).
  std::size_t dirty_blocks() const { return dirty_.size(); }

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
    std::uint32_t replica = 0;
    std::uint32_t tries = 0;  ///< failed attempts so far (bounded)
  };

  static std::uint64_t mix(std::uint64_t f, std::uint64_t b);
  static std::uint64_t key(bridge::FileId f, std::uint32_t b,
                           std::uint32_t r) {
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
  /// Record a successful read latency and return the current hedge
  /// threshold estimate.
  void record_latency(sim::Time t);
  sim::Time hedge_threshold() const;
  void queue_repairs_for_node(sim::NodeId n);
  void queue_repair(bridge::FileId f, std::uint32_t b, std::uint32_t r);
  /// Hand the dirty log to the repair worker (idempotent while queued).
  void queue_reconcile();
  /// Replay the dirty log through resync_block(), oldest key first.
  void reconcile();
  void repair_loop();
  /// Perform one repair job; true if the block is back to full strength or
  /// the job is moot, false if it should be retried later.
  bool do_repair(const RepairJob& j);
  /// Settle an outstanding async arm: abandon it, or drain its raced-in
  /// reply token and free the slot.
  void settle(chrys::Oid dq, std::uint32_t rid);

  chrys::Kernel& k_;
  sim::Machine& m_;
  bridge::BridgeFs& fs_;
  rescue::Membership* mem_ = nullptr;
  ServeConfig cfg_;
  sim::Rng rng_;

  std::vector<std::uint32_t> nlogical_;     // per file: logical blocks
  std::vector<std::uint32_t> max_blocks_;   // per file: logical capacity
  std::vector<std::uint32_t> repair_next_;  // per file: next repair slot
  // (f,b,r) -> physical index, for replicas moved by repair.
  std::unordered_map<std::uint64_t, std::uint32_t> redirect_;
  // (f,b,r) keys acked while the arm was unreachable: the heal-time
  // reconciliation work list.  Replayed in sorted-key order so the
  // reconcile pass is deterministic (Instant Replay holds).
  std::unordered_set<std::uint64_t> dirty_;
  // Blocks (f<<32|b) a resync_block() is scanning right now.  A write
  // landing mid-scan could be outvoted by two stale replicas and reverted
  // after its ack; writers stall until the scan is over instead.
  std::unordered_set<std::uint64_t> resync_busy_;

  // Latency ring for the hedge quantile estimate.
  std::vector<sim::Time> lat_ring_;
  std::uint32_t lat_count_ = 0;
  std::uint32_t lat_idx_ = 0;

  // Repair machinery.
  std::vector<RepairJob> repair_jobs_;      // host-side job slots
  std::vector<std::uint32_t> repair_free_;
  // (f,b,r) keys queued or being repaired — dedups the excise sweep
  // against per-write dead-arm discoveries.
  std::unordered_set<std::uint64_t> repair_inflight_;
  chrys::Oid repair_dq_ = chrys::kNoObject;
  std::uint32_t pending_repairs_ = 0;
  bool repair_running_ = false;
  bool repair_stopping_ = false;
  sim::NodeId repair_node_ = 0;  ///< where the worker runs, for the join
  // Nodes already excised by this layer (the crash broadcast and the
  // failure detector both report loud kills; excise once).
  std::vector<std::uint8_t> excised_;

  bool reconcile_queued_ = false;

  ServeCounters counters_;
  std::uint64_t crash_observer_ = 0;
  std::uint64_t mem_sub_ = 0;
  std::uint64_t heal_observer_ = 0;
};

}  // namespace bfly::serve
