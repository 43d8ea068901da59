#include "serve/serve.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

namespace bfly::serve {

namespace {
constexpr std::uint32_t kNoRid = 0xffffffffu;
constexpr std::uint32_t kStopJob = 0xffffffffu;
constexpr std::uint32_t kNoReplicaIdx = 0xffffffffu;
/// What a shed costs the client: the rejected request's round trip.
constexpr sim::Time kShedCost = 100 * sim::kMicrosecond;
/// Give up repairing a block still below full strength after this many
/// attempts (each with the retry policy's backoff); it is then counted lost.
constexpr std::uint32_t kRepairMaxTries = 8;
/// Reads hedge past this quantile of the last kHedgeWindow read latencies.
constexpr double kHedgeQuantile = 0.9;
constexpr std::uint32_t kHedgeWindow = 64;
}  // namespace

ReplicatedFs::ReplicatedFs(chrys::Kernel& k, bridge::BridgeFs& fs,
                           rescue::Membership*, ServeConfig cfg)
    : k_(k), m_(k.machine()), fs_(fs), cfg_(cfg),
      rng_(cfg.seed), latencies_(kHedgeWindow) {
  if (cfg_.replicas == 0 || cfg_.replicas > fs_.servers())
    throw sim::SimError(
        "serve: replicas must be in [1, servers] — each replica needs its "
        "own server");
  if (cfg_.deadline == 0)
    throw sim::SimError(
        "serve: zero deadline — a serving layer without deadlines is just "
        "Bridge; give every request a budget");
  if (cfg_.retry.attempts == 0)
    throw sim::SimError("serve: retry.attempts must be >= 1");
  repair_dq_ = k_.make_dual_queue();
  // Crash tier: a broadcast death (a loud kill, or a failure detector's
  // verdict) reaches us after Bridge's own observer, which registered
  // first and fail-replied the dead servers' queues.  The broadcast fires
  // once per node, so this excises once.
  crash_observer_ = m_.on_node_crash([this](sim::NodeId n) {
    m_.trace_instant("serve", "excise", n);
    queue_repairs_for_node(n);
  });
}

ReplicatedFs::~ReplicatedFs() {
  if (crash_observer_ != 0) m_.remove_crash_observer(crash_observer_);
}

std::uint64_t ReplicatedFs::mix(std::uint64_t f, std::uint64_t b) {
  std::uint64_t z = f * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t ReplicatedFs::phys_index(bridge::FileId f, std::uint32_t b,
                                       std::uint32_t r) const {
  const auto it = redirect_.find(key(f, b, r));
  if (it != redirect_.end()) return it->second;
  const std::uint32_t d = fs_.servers();
  const auto server = static_cast<std::uint32_t>((mix(f, b) + r) % d);
  // Slot (b*R + r) is unique per (b, r), so the physical index collides
  // with no other replica regardless of which server the hash picked.
  const std::uint32_t slot = b * cfg_.replicas + r;
  return slot * d + server;
}

bridge::FileId ReplicatedFs::open(const std::string& name,
                                  std::uint32_t max_blocks) {
  if (max_blocks == 0)
    throw sim::SimError("serve: max_blocks must be >= 1");
  bridge::FileId f;
  if (!fs_.lookup(name, &f)) f = fs_.create(name);
  while (nlogical_.size() <= f) {
    nlogical_.push_back(0);
    max_blocks_.push_back(0);
    repair_next_.push_back(0);
  }
  max_blocks_[f] = max_blocks;
  // Repair slots live above every slot normal placement can use.
  repair_next_[f] =
      std::max(repair_next_[f], max_blocks * cfg_.replicas);
  // Reopening after a restart: recover the logical length from the
  // physical extent (slot = phys / D, slot < nlogical * R for normal
  // placement; repair slots can only overestimate, so clamp).
  const std::uint32_t physn = fs_.blocks(f);
  if (physn > 0) {
    const std::uint32_t slot_max = (physn - 1) / fs_.servers();
    nlogical_[f] = std::min(
        max_blocks, (slot_max + cfg_.replicas) / cfg_.replicas);
  }
  return f;
}

sim::Time ReplicatedFs::hedge_threshold() const {
  if (latencies_.count() == 0 ||
      latencies_.count() < cfg_.min_hedge_samples)
    return cfg_.hedge_floor;
  return std::max(cfg_.hedge_floor,
                  latencies_.quantile(kHedgeQuantile));
}

void ReplicatedFs::settle(std::uint32_t rid) {
  // An arm still in flight passes to the bridge.  One whose reply raced in
  // is finished here; its token dies with the queue each caller deletes
  // next.
  if (rid != kNoRid && fs_.abandon_request(rid)) fs_.finish_request(rid);
}

bool ReplicatedFs::admit(std::uint32_t s) {
  if (fs_.queue_depth(s) < cfg_.queue_limit) return true;
  ++counters_.sheds;
  m_.trace_instant("serve", "shed", s);
  m_.charge(kShedCost);
  return false;
}

Status ReplicatedFs::read(bridge::FileId f, std::uint32_t b, void* out) {
  sim::TraceSpan span(m_, "serve", "read", b);
  ++counters_.reads;
  const sim::Time t0 = m_.now();
  const sim::Time deadline_at = t0 + cfg_.deadline;
  const std::uint32_t r_count = cfg_.replicas;
  const chrys::Oid dq = k_.make_dual_queue();
  // The hedge arm's buffer, sized when the first hedge is sent: most reads
  // never send one.
  std::vector<std::uint8_t> scratch;
  const auto start = static_cast<std::uint32_t>(rng_.below(r_count));
  Status give_up = Status::kNoReplica;

  for (std::uint32_t attempt = 0; attempt < cfg_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      const sim::Time back = cfg_.retry.backoff_jittered(attempt - 1, rng_);
      if (m_.now() + back >= deadline_at) break;  // no budget for a retry
      ++counters_.retries;
      m_.trace_instant("serve", "retry", attempt);
      k_.delay(back);
    }
    // Candidate scan: primary is the first live, non-shedding replica in
    // rotation order; the hedge candidate is the next one after it.
    std::uint32_t primary_r = kNoReplicaIdx;
    std::uint32_t hedge_r = kNoReplicaIdx;
    bool any_live = false;
    for (std::uint32_t i = 0; i < r_count; ++i) {
      const std::uint32_t r = (start + attempt + i) % r_count;
      if (!replica_alive(f, b, r)) continue;
      // Alive but on the far side of a partition (or behind dead switch
      // hardware): read-any means any *reachable* replica will do.
      if (!replica_reachable(f, b, r)) continue;
      any_live = true;
      if (primary_r == kNoReplicaIdx) {
        if (!admit(server_of_replica(f, b, r))) continue;
        primary_r = r;
      } else if (server_of_replica(f, b, r) !=
                 server_of_replica(f, b, primary_r)) {
        hedge_r = r;
        break;
      }
    }
    if (primary_r == kNoReplicaIdx) {
      give_up = any_live ? Status::kShed : Status::kNoReplica;
      continue;
    }

    const std::uint32_t prid =
        fs_.submit_read(f, phys_index(f, b, primary_r), out, dq);
    std::uint32_t hrid = kNoRid;
    bool primary_out = true;
    bool hedge_out = false;
    const sim::Time hedge_at =
        (cfg_.hedge_reads && hedge_r != kNoReplicaIdx)
            ? m_.now() + hedge_threshold()
            : 0;
    bool won = false;

    while (primary_out || hedge_out) {
      const sim::Time now = m_.now();
      if (now >= deadline_at) break;
      const bool hedge_pending = hedge_at != 0 && hrid == kNoRid &&
                                 primary_out;
      sim::Time wait_until = deadline_at;
      if (hedge_pending && hedge_at < wait_until) wait_until = hedge_at;
      std::uint32_t tok;
      if (wait_until > now &&
          k_.dq_dequeue_for(dq, wait_until - now, &tok)) {
        const bool failed = fs_.request_failed(tok);
        const bool is_primary = tok == prid;
        if (is_primary)
          primary_out = false;
        else
          hedge_out = false;
        if (failed) {
          fs_.finish_request(tok);
          continue;
        }
        const std::uint32_t wr = is_primary ? primary_r : hedge_r;
        const std::uint32_t ws = server_of_replica(f, b, wr);
        if (!is_primary) {
          ++counters_.hedge_wins;
          std::memcpy(out, scratch.data(), bridge::kBlockSize);
        }
        fs_.finish_request(tok);
        // A server that died between its reply and the pull, or a cut that
        // opened there, fails this arm like a fail-reply: the other arm (or
        // the next attempt) can still win.
        if (fs_.pull(ws) != bridge::Transfer::kOk) continue;
        won = true;
        break;
      }
      if (hedge_pending && m_.now() >= hedge_at && m_.now() < deadline_at) {
        scratch.resize(bridge::kBlockSize);
        hrid = fs_.submit_read(f, phys_index(f, b, hedge_r),
                               scratch.data(), dq);
        hedge_out = true;
        ++counters_.hedges;
        m_.trace_instant("serve", "hedge", b);
        continue;
      }
      break;  // deadline
    }

    if (won) {
      if (primary_out) settle(prid);
      if (hedge_out) settle(hrid);
      k_.delete_object(dq);
      latencies_.record(m_.now() - t0);
      return Status::kOk;
    }
    if (m_.now() >= deadline_at) {
      if (primary_out) settle(prid);
      if (hedge_out) settle(hrid);
      ++counters_.timeouts;
      m_.trace_instant("serve", "timeout", b);
      k_.delete_object(dq);
      return Status::kTimeout;
    }
    // Every issued arm fail-replied (its server died): rotate replicas.
    give_up = Status::kNoReplica;
  }
  k_.delete_object(dq);
  return give_up;
}

Status ReplicatedFs::write(bridge::FileId f, std::uint32_t b,
                           const void* data) {
  if (b >= max_blocks_[f])
    throw sim::SimError("serve: write past max_blocks — repair slots live "
                        "above the declared capacity");
  sim::TraceSpan span(m_, "serve", "write", b);
  ++counters_.writes;
  const std::uint64_t version = fs_.next_version();
  const sim::Time deadline_at = m_.now() + cfg_.deadline;
  if (b >= nlogical_[f]) nlogical_[f] = b + 1;
  const std::uint32_t r_count = cfg_.replicas;
  const chrys::Oid dq = k_.make_dual_queue();
  // Per-arm fate.  A dead arm's server is a corpse: it leaves the quorum's
  // denominator and the repair of the block relocates the replica.  An
  // unreachable arm's server is alive across a cut: it stays in the
  // denominator, and if the write commits elsewhere the block is queued
  // for repair, which waits for the cut to heal.
  std::vector<std::uint8_t> need(r_count, 1);
  std::uint32_t dead = 0, unreach = 0, committed = 0;
  const auto quorum = [&] { return (r_count - dead) / 2 + 1; };
  const auto lose_arm = [&](std::uint32_t r, bool unreachable) {
    need[r] = 0;
    if (unreachable) {
      ++unreach;
      return;
    }
    ++counters_.failed_replicas;
    ++dead;
    queue_repair(f, b);
  };
  Status fail = Status::kNoReplica;

  for (std::uint32_t attempt = 0; attempt < cfg_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      const sim::Time back = cfg_.retry.backoff_jittered(attempt - 1, rng_);
      if (m_.now() + back >= deadline_at) break;
      ++counters_.retries;
      m_.trace_instant("serve", "retry", attempt);
      k_.delay(back);
    }
    std::uint32_t in_reach = committed;
    for (std::uint32_t r = 0; r < r_count; ++r) {
      if (!need[r]) continue;
      if (!replica_alive(f, b, r))
        lose_arm(r, false);
      else if (!replica_reachable(f, b, r))
        lose_arm(r, true);  // no charged attempts against a known cut
      else
        ++in_reach;
    }
    // A majority out of reach: refuse before shipping an arm, so the
    // minority side of a split commits nothing.
    if (in_reach < quorum()) break;
    // Write-all: one arm per replica still needing the block.
    std::vector<std::uint32_t> rids;
    std::vector<std::uint32_t> rid_rep;
    fail = Status::kNoReplica;
    for (std::uint32_t r = 0; r < r_count; ++r) {
      if (!need[r]) continue;
      if (!admit(server_of_replica(f, b, r))) {
        fail = Status::kShed;
        continue;  // still needed next attempt
      }
      rids.push_back(
          fs_.submit_write(f, phys_index(f, b, r), data, dq, version));
      rid_rep.push_back(r);
    }

    std::vector<std::uint8_t> outstanding(rids.size(), 1);
    std::size_t left = rids.size();
    bool timed_out = false;
    while (left > 0) {
      const sim::Time now = m_.now();
      std::uint32_t tok;
      if (now >= deadline_at ||
          !k_.dq_dequeue_for(dq, deadline_at - now, &tok)) {
        timed_out = true;
        break;
      }
      for (std::size_t i = 0; i < rids.size(); ++i) {
        if (rids[i] != tok || !outstanding[i]) continue;
        outstanding[i] = 0;
        --left;
        if (!fs_.request_failed(tok)) {
          need[rid_rep[i]] = 0;
          ++committed;
        } else {
          // A cut that opened mid-request is partition fate, not death.
          lose_arm(rid_rep[i], fs_.request_unreachable(tok));
        }
        fs_.finish_request(tok);
        break;
      }
    }
    if (timed_out) {
      // Abandoned arms do not commit.
      for (std::size_t i = 0; i < rids.size(); ++i)
        if (outstanding[i]) settle(rids[i]);
      ++counters_.timeouts;
      m_.trace_instant("serve", "timeout", b);
      fail = Status::kTimeout;
      break;
    }
    if (std::count(need.begin(), need.end(), 1) == 0) break;
  }
  k_.delete_object(dq);
  // A replica the cut hid from a committed write is stale: repair it.
  if (committed > 0 && unreach > 0) queue_repair(f, b);
  // The one ack rule: a majority of the non-dead replicas committed.
  if (committed >= quorum()) return Status::kOk;
  if (unreach > 0) {
    ++counters_.quorum_rejects;
    m_.trace_instant("serve", "no_quorum", b);
    return Status::kNoQuorum;
  }
  return fail;
}

// --- Excision & repair ----------------------------------------------------

void ReplicatedFs::queue_repairs_for_node(sim::NodeId n) {
  for (bridge::FileId f = 0; f < nlogical_.size(); ++f) {
    for (std::uint32_t b = 0; b < nlogical_[f]; ++b) {
      for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
        if (fs_.server_node(server_of_replica(f, b, r)) == n) {
          queue_repair(f, b);
          break;
        }
      }
    }
  }
}

void ReplicatedFs::queue_repair(bridge::FileId f, std::uint32_t b) {
  if (!repair_inflight_.insert(key(f, b)).second) return;  // queued
  ++pending_repairs_;
  enqueue_repair(RepairJob{f, b, 0});
}

void ReplicatedFs::enqueue_repair(const RepairJob& job) {
  std::uint32_t j;
  if (!repair_free_.empty()) {
    j = repair_free_.back();
    repair_free_.pop_back();
    repair_jobs_[j] = job;
  } else {
    repair_jobs_.push_back(job);
    j = static_cast<std::uint32_t>(repair_jobs_.size() - 1);
  }
  // Uncharged: repairs are queued from observer context (node death).
  k_.dq_enqueue_uncharged(repair_dq_, j);
}

void ReplicatedFs::start_repair(sim::NodeId node) {
  if (repair_running_) return;
  repair_running_ = true;
  repair_stopping_ = false;
  repair_node_ = node;
  k_.create_process(node, [this] { repair_loop(); }, "serve-repair");
}

void ReplicatedFs::stop_repair() {
  if (!repair_running_ || repair_stopping_) return;
  repair_stopping_ = true;
  k_.dq_enqueue_uncharged(repair_dq_, kStopJob);
  // Join: the worker reads this object until it exits, so blocking here
  // (callers are on a process) is what makes "call before teardown" safe.
  // A worker whose node was killed never wakes; don't wait for a corpse.
  while (repair_running_ && m_.node_alive(repair_node_))
    k_.delay(1 * sim::kMillisecond);
}

void ReplicatedFs::repair_loop() {
  // Blocks with a live replica behind a cut wait here, outside the queue
  // and its try budget.  Once the queue has sat idle for a backoff cap they
  // go back in to be checked again; an empty list waits untimed.
  std::vector<RepairJob> waiting;
  while (true) {
    std::uint32_t j;
    const auto recheck =
        waiting.empty() ? std::optional<sim::Time>() : cfg_.retry.cap;
    if (!k_.dq_dequeue_for(repair_dq_, recheck, &j)) {
      for (const RepairJob& w : waiting) enqueue_repair(w);
      waiting.clear();
      continue;
    }
    if (j == kStopJob) break;
    RepairJob job = repair_jobs_[j];
    repair_free_.push_back(j);
    if (behind_cut(job.file, job.block)) {
      waiting.push_back(job);
      continue;
    }
    {
      sim::TraceSpan span(m_, "serve", "repair", job.block);
      counters_.reconciled += resync_block(job.file, job.block);
      ++counters_.repaired_blocks;
    }
    const bool settled = live_replicas(job.file, job.block) == cfg_.replicas;
    if (!settled && job.tries + 1 < kRepairMaxTries) {
      ++job.tries;
      k_.delay(cfg_.retry.backoff(job.tries));
      enqueue_repair(job);
      continue;  // still pending; inflight key stays claimed
    }
    if (!settled) {
      ++counters_.lost_blocks;
      m_.trace_instant("serve", "repair_lost", job.block);
    }
    repair_inflight_.erase(key(job.file, job.block));
    --pending_repairs_;
  }
  // Still pending: a later worker finds them queued.
  for (const RepairJob& w : waiting) enqueue_repair(w);
  repair_running_ = false;
}

bool ReplicatedFs::behind_cut(bridge::FileId f, std::uint32_t b) const {
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r)
    if (replica_alive(f, b, r) && !replica_reachable(f, b, r)) return true;
  return false;
}

void ReplicatedFs::relocate(bridge::FileId f, std::uint32_t b,
                            std::uint32_t r, const void* data,
                            std::uint64_t version) {
  const std::uint32_t d = fs_.servers();
  const auto base = static_cast<std::uint32_t>((mix(f, b) + r) % d);
  for (std::uint32_t i = 1; i < d; ++i) {
    const std::uint32_t t = (base + i) % d;
    if (!fs_.server_alive(t)) continue;
    bool taken = false;
    for (std::uint32_t r2 = 0; r2 < cfg_.replicas; ++r2) {
      if (r2 != r && server_of_replica(f, b, r2) == t) taken = true;
    }
    if (taken) continue;
    const std::uint32_t slot = repair_next_[f]++;
    const std::uint32_t phys = slot * d + t;
    try {
      if (!fs_.write_block_for(f, phys, data, cfg_.deadline, version))
        continue;  // slot wasted, target considered again next try
    } catch (const chrys::ThrowSignal&) {
      continue;
    }
    redirect_[key(f, b, r)] = phys;
    ++counters_.rereplications;
    m_.trace_instant("serve", "rereplicate", b);
    return;
  }
}

std::uint32_t ReplicatedFs::live_replicas(bridge::FileId f,
                                          std::uint32_t b) const {
  std::uint32_t n = 0;
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r)
    if (replica_alive(f, b, r)) ++n;
  return n;
}

std::uint32_t ReplicatedFs::resync_block(bridge::FileId f, std::uint32_t b) {
  const std::uint32_t r_count = cfg_.replicas;
  std::uint32_t rewrites = 0;
  std::vector<std::vector<std::uint8_t>> copy(r_count);
  std::vector<std::uint64_t> version(r_count, 0);
  std::uint32_t best = kNoReplicaIdx;
  for (std::uint32_t r = 0; r < r_count; ++r) {
    if (!replica_alive(f, b, r)) continue;
    copy[r].resize(bridge::kBlockSize);
    bool read = false;
    try {
      read = fs_.read_block_for(f, phys_index(f, b, r), copy[r].data(),
                                cfg_.deadline, &version[r]);
    } catch (const chrys::ThrowSignal&) {
    }
    if (!read) {
      copy[r].clear();  // unreadable: rewritten below
      continue;
    }
    // The highest version wins; ties go to the lowest replica.
    if (best == kNoReplicaIdx || version[r] > version[best]) best = r;
  }
  if (best == kNoReplicaIdx) {
    // Nothing readable: the repair worker retries the block, and counts it
    // lost when it stays below full strength.
    queue_repair(f, b);
    return 0;
  }
  // Rewrite every live replica that does not hold the winner, and relocate
  // every dead one.  The copies carry the winner's version, so a newer
  // write that lands after the reads above outranks them in Bridge and is
  // never reverted.  Only a rewrite Bridge installed in place counts.
  for (std::uint32_t r = 0; r < r_count; ++r) {
    if (version[r] == version[best] && copy[r] == copy[best]) continue;
    if (!replica_alive(f, b, r)) {
      relocate(f, b, r, copy[best].data(), version[best]);
      continue;
    }
    try {
      std::uint64_t stored = 0;
      if (fs_.write_block_for(f, phys_index(f, b, r), copy[best].data(),
                              cfg_.deadline, version[best], &stored) &&
          stored == version[best])
        ++rewrites;
    } catch (const chrys::ThrowSignal&) {
    }
  }
  return rewrites;
}

std::uint32_t ReplicatedFs::resync(bridge::FileId f) {
  sim::TraceSpan span(m_, "serve", "resync", f);
  std::uint32_t rewrites = 0;
  for (std::uint32_t b = 0; b < nlogical_[f]; ++b)
    rewrites += resync_block(f, b);
  return rewrites;
}

}  // namespace bfly::serve
