#include "bridge/bridge.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

namespace bfly::bridge {

namespace {
constexpr sim::Time kRequestOverhead = 100 * sim::kMicrosecond;
// Per-record comparison work during scans/merges.
constexpr std::uint64_t kScanOpsPerBlock = kBlockSize / 16;
constexpr std::uint32_t kNoRid = 0xffffffffu;
}  // namespace

BridgeFs::BridgeFs(chrys::Kernel& k, std::uint32_t servers, DiskParams disk,
                   StableStore* persist)
    : k_(k), m_(k.machine()), nservers_(servers), disk_params_(disk),
      persist_(persist) {
  done_dq_ = k_.make_dual_queue();
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    auto sv = std::make_unique<Server>(disk_params_);
    sv->node = s % m_.nodes();
    sv->req_dq = k_.make_dual_queue();
    servers_.push_back(std::move(sv));
  }
  if (persist_ != nullptr && !persist_->empty()) {
    if (persist_->servers != nservers_)
      throw sim::SimError(
          "BridgeFs: stable-store image was written with a different server "
          "count; interleaving would scramble every file");
    for (const auto& fi : persist_->files)
      files_.push_back(FileMeta{fi.name, fi.nblocks});
    for (std::uint32_t s = 0; s < nservers_; ++s) {
      servers_[s]->store = persist_->stores[s];
      for (const auto& file : servers_[s]->store)
        for (const Block& blk : file)
          last_version_ = std::max(last_version_, blk.version);
    }
  }
  servers_alive_ = nservers_;
  // Crash tier: the file system hears broadcast deaths, loud kills and a
  // failure detector's verdicts on silent ones.  Registered before the
  // servers start, so a kill landing mid-construction reaches it.
  crash_observer_ =
      m_.on_node_crash([this](sim::NodeId n) { handle_node_death(n); });
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    Server& sv = *servers_[s];
    if (!sv.alive) continue;  // its node died while an earlier one started
    try {
      k_.create_process(sv.node, [this, s] { server_loop(s); },
                        "bridge-srv" + std::to_string(s));
    } catch (const chrys::ThrowSignal& t) {
      if (t.code != chrys::kThrowNodeDead &&
          t.code != chrys::kThrowNetUnreachable)
        throw;
      // A server that cannot start is lost from the start: its stripe
      // fail-replies like a dead one's, and the others serve.
      if (sv.alive) {
        sv.alive = false;
        --servers_alive_;
        ++servers_lost_;
      }
    }
  }
}

BridgeFs::~BridgeFs() {
  persist();
  if (crash_observer_ != 0) m_.remove_crash_observer(crash_observer_);
}

void BridgeFs::persist() {
  if (persist_ == nullptr) return;
  persist_->servers = nservers_;
  persist_->files.clear();
  for (const auto& f : files_)
    persist_->files.push_back(StableStore::FileImage{f.name, f.nblocks});
  persist_->stores.assign(nservers_, {});
  for (std::uint32_t s = 0; s < nservers_; ++s)
    persist_->stores[s] = servers_[s]->store;
}

void BridgeFs::fail_reply(std::uint32_t rid) {
  Request& rq = reqs_[rid];
  if (rq.abandoned) {
    release_request(rid);  // nobody is waiting; just reclaim
    return;
  }
  rq.failed = true;
  send_reply(rid);
}

void BridgeFs::send_reply(std::uint32_t rid) {
  Request& rq = reqs_[rid];
  assert(!rq.abandoned && "an abandoned request's reply queue may be gone");
  k_.dq_enqueue_uncharged(rq.reply_dq, rid);
  rq.replied = true;
}

void BridgeFs::fail_abandoned(std::uint32_t s) {
  std::uint32_t rid;
  while (k_.dq_try_dequeue_uncharged(servers_[s]->req_dq, &rid))
    fail_reply(rid);
}

void BridgeFs::handle_node_death(sim::NodeId n) {
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    Server& sv = *servers_[s];
    if (!sv.alive || sv.node != n) continue;
    sv.alive = false;
    --servers_alive_;
    ++servers_lost_;
    // Every client is owed exactly one reply per request.  Fail-reply the
    // one being served when the node died, then everything still queued.
    if (sv.current_rid != kNoRid) {
      fail_reply(sv.current_rid);
      sv.current_rid = kNoRid;
    }
    fail_abandoned(s);
  }
}

FileId BridgeFs::create(std::string name) {
  files_.push_back(FileMeta{std::move(name), 0});
  for (auto& sv : servers_) sv->store.emplace_back();
  return static_cast<FileId>(files_.size() - 1);
}

bool BridgeFs::lookup(const std::string& name, FileId* out) const {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      *out = static_cast<FileId>(i);
      return true;
    }
  }
  return false;
}

std::uint32_t BridgeFs::blocks(FileId f) const { return files_[f].nblocks; }

Block& BridgeFs::block_ref(std::uint32_t s, FileId f, std::uint32_t local) {
  auto& file_store = servers_[s]->store[f];
  if (file_store.size() <= local) file_store.resize(local + 1);
  Block& blk = file_store[local];
  if (blk.bytes.empty()) blk.bytes.assign(kBlockSize, 0);
  return blk;
}

void BridgeFs::charge_disk(Server& sv, std::uint32_t lbn) {
  // A gray-failed node is slow all the way down: its disk controller shares
  // the stretched service window (sim::FaultPlan::slow).
  const sim::Time done =
      sv.disk.access(m_.now(), lbn, m_.slow_factor(sv.node));
  m_.charge(done - m_.now());
}

void BridgeFs::server_loop(std::uint32_t s) {
  Server& sv = *servers_[s];
  while (true) {
    const std::uint32_t rid = k_.dq_dequeue(sv.req_dq);
    // Claim the request host-side before any charge: if this node dies
    // mid-service, the death observer fail-replies exactly this rid.
    sv.current_rid = rid;
    Request& rq = reqs_[rid];
    if (rq.abandoned) {
      // Cancelled while queued: the client is gone, skip the disk entirely
      // (this is what makes a hedge's losing arm cheap).
      release_request(rid);
      sv.current_rid = kNoRid;
      continue;
    }
    sim::TraceSpan span(m_, "bridge", "serve",
                        static_cast<std::uint64_t>(rq.op));
    bool stop = false;
    switch (rq.op) {
      case Request::kRead: {
        const std::uint32_t local = rq.index / nservers_;
        charge_disk(sv, rq.file * 65536 + local);
        const Block& blk = block_ref(s, rq.file, local);
        // The client may have abandoned us during the disk charge and its
        // buffer may be gone: re-check before every data move.
        if (!rq.abandoned) {
          std::memcpy(rq.rdata, blk.bytes.data(), kBlockSize);
          rq.version = blk.version;
        }
        break;
      }
      case Request::kWrite: {
        const std::uint32_t local = rq.index / nservers_;
        charge_disk(sv, rq.file * 65536 + local);
        Block& blk = block_ref(s, rq.file, local);
        // An abandoned write does not commit — the deadline passed, the
        // caller counts it failed, and the replica is repaired by resync.
        // A write older than the stored block is acknowledged unchanged.
        // Either way the reply carries the stored version, so the caller
        // can tell an install from an outranked write.
        if (!rq.abandoned) {
          if (rq.version == 0 || rq.version >= blk.version) {
            std::memcpy(blk.bytes.data(), rq.wdata, kBlockSize);
            blk.version = rq.version;
          }
          rq.version = blk.version;
        }
        break;
      }
      case Request::kToolCopy: {
        const std::uint32_t n = local_count(rq.file, s);
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);   // read src
          charge_disk(sv, rq.file2 * 65536 + l);  // write dst
          block_ref(s, rq.file2, l) = block_ref(s, rq.file, l);
        }
        rq.result = n;
        break;
      }
      case Request::kToolSearch: {
        const std::uint32_t n = local_count(rq.file, s);
        std::uint64_t count = 0;
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          m_.compute(kScanOpsPerBlock);
          for (std::uint8_t b : block_ref(s, rq.file, l).bytes)
            if (b == rq.needle) ++count;
        }
        rq.result = count;
        break;
      }
      case Request::kToolCompare: {
        const std::uint32_t n = local_count(rq.file, s);
        std::uint64_t diff = 0;
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          charge_disk(sv, rq.file2 * 65536 + l);
          m_.compute(kScanOpsPerBlock);
          if (block_ref(s, rq.file, l).bytes != block_ref(s, rq.file2, l).bytes)
            ++diff;
        }
        rq.result = diff;
        break;
      }
      case Request::kToolSortLocal: {
        const std::uint32_t n = local_count(rq.file, s);
        std::vector<std::uint32_t> recs;
        recs.reserve(static_cast<std::size_t>(n) * (kBlockSize / 4));
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          const auto& blk = block_ref(s, rq.file, l).bytes;
          const auto* p = reinterpret_cast<const std::uint32_t*>(blk.data());
          recs.insert(recs.end(), p, p + kBlockSize / 4);
        }
        if (!recs.empty()) {
          m_.compute(recs.size() * 4);  // ~n log n record moves
          std::sort(recs.begin(), recs.end());
        }
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          auto& blk = block_ref(s, rq.file, l).bytes;
          std::memcpy(blk.data(), recs.data() + l * (kBlockSize / 4),
                      kBlockSize);
        }
        rq.result = n;
        break;
      }
      case Request::kStop:
        stop = true;
        break;
    }
    // The reply is a charged enqueue, and the client may abandon the
    // request during that charge too: check both before and after it.  The
    // token goes out only after the charge completes: if the node dies
    // mid-enqueue, the death observer still owes this rid its fail-reply.
    if (!rq.abandoned) m_.charge(m_.config().dq_enqueue_ns);
    if (rq.abandoned)
      release_request(rid);
    else
      send_reply(rid);
    sv.current_rid = kNoRid;
    if (stop) break;
  }
  sv.alive = false;
  --servers_alive_;
}

std::uint32_t BridgeFs::local_count(FileId f, std::uint32_t s) const {
  const std::uint32_t n = files_[f].nblocks;
  // Blocks s, s+D, s+2D, ... below n.
  return n > s ? (n - s - 1) / nservers_ + 1 : 0;
}

void BridgeFs::write_block(FileId f, std::uint32_t index, const void* data) {
  (void)write_block_for(f, index, data, 0);
}

void BridgeFs::read_block(FileId f, std::uint32_t index, void* out) {
  (void)read_block_for(f, index, out, 0);
}

bool BridgeFs::write_block_for(FileId f, std::uint32_t index, const void* data,
                               sim::Time budget, std::uint64_t version,
                               std::uint64_t* stored) {
  const std::uint32_t s = index % nservers_;
  if (!servers_[s]->alive) raise_if_failed(Transfer::kDead, s);
  sim::TraceSpan span(m_, "bridge", "write_block", index);
  Request rq;
  rq.op = Request::kWrite;
  rq.file = f;
  rq.index = index;
  rq.wdata = data;
  rq.version = version;
  raise_if_failed(ship(s, rq), s);
  rq.reply_dq = k_.make_dual_queue();
  return await(post(s, std::move(rq)), s, budget, stored);
}

bool BridgeFs::read_block_for(FileId f, std::uint32_t index, void* out,
                              sim::Time budget, std::uint64_t* version) {
  const std::uint32_t s = index % nservers_;
  if (!servers_[s]->alive) raise_if_failed(Transfer::kDead, s);
  sim::TraceSpan span(m_, "bridge", "read_block", index);
  Request rq;
  rq.op = Request::kRead;
  rq.file = f;
  rq.index = index;
  rq.rdata = out;
  raise_if_failed(ship(s, rq), s);
  rq.reply_dq = k_.make_dual_queue();
  if (!await(post(s, std::move(rq)), s, budget, version)) return false;
  // A server that died between its reply and the pull took the block with
  // it; a cut that opened there leaves it on the far side.
  raise_if_failed(pull(s), s);
  return true;
}

std::uint32_t BridgeFs::submit_read(FileId f, std::uint32_t index, void* out,
                                    chrys::Oid reply_dq) {
  sim::TraceSpan span(m_, "bridge", "submit_read", index);
  Request rq;
  rq.op = Request::kRead;
  rq.file = f;
  rq.index = index;
  rq.rdata = out;
  rq.reply_dq = reply_dq;
  return submit(std::move(rq));
}

std::uint32_t BridgeFs::submit_write(FileId f, std::uint32_t index,
                                     const void* data, chrys::Oid reply_dq,
                                     std::uint64_t version) {
  sim::TraceSpan span(m_, "bridge", "submit_write", index);
  Request rq;
  rq.op = Request::kWrite;
  rq.file = f;
  rq.index = index;
  rq.wdata = data;
  rq.version = version;
  rq.reply_dq = reply_dq;
  return submit(std::move(rq));
}

std::uint32_t BridgeFs::submit(Request rq) {
  const std::uint32_t s = rq.index % nservers_;
  const Transfer t = ship(s, rq);
  if (t == Transfer::kOk) return post(s, std::move(rq));
  // Failed before it reached the server: fail-reply at once, uncharged, so
  // the caller's reply loop stays uniform.  An unreachable server keeps
  // its replica (stale, not lost).
  rq.unreachable = t == Transfer::kUnreachable;
  const std::uint32_t rid = put_request(std::move(rq));
  fail_reply(rid);
  return rid;
}

Transfer BridgeFs::ship(std::uint32_t s, const Request& rq) {
  m_.charge(kRequestOverhead);
  if (!servers_[s]->alive) return Transfer::kDead;  // died during the charge
  if (rq.op != Request::kWrite) return Transfer::kOk;
  files_[rq.file].nblocks = std::max(files_[rq.file].nblocks, rq.index + 1);
  // The block crosses the switch to the server: a read's pull, reversed.
  return pull(s);
}

Transfer BridgeFs::pull(std::uint32_t s) {
  try {
    m_.access_words(sim::PhysAddr{servers_[s]->node, 0}, kBlockSize / 4 / 8);
  } catch (const sim::NodeDeadError&) {
    // Touching the corpse revealed a death no detector had reported yet.
    return Transfer::kDead;
  } catch (const sim::NetUnreachableError&) {
    // No path to the server (partition or dead switch hardware).
    return Transfer::kUnreachable;
  }
  return Transfer::kOk;
}

std::uint32_t BridgeFs::post(std::uint32_t s, Request rq) {
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue(servers_[s]->req_dq, rid);
  // The server may have died during the enqueue, after its death observer
  // drained the queue: fail-reply our own stranded rid.
  if (!servers_[s]->alive) fail_abandoned(s);
  return rid;
}

bool BridgeFs::await(std::uint32_t rid, std::uint32_t s, sim::Time budget,
                     std::uint64_t* version) {
  const chrys::Oid reply = reqs_[rid].reply_dq;
  std::uint32_t tok;
  // A reply that raced the deadline in still counts; its token dies with
  // the queue.
  if (!k_.dq_dequeue_for(
          reply, budget == 0 ? std::nullopt : std::optional(budget), &tok) &&
      !abandon_request(rid)) {
    k_.delete_object(reply);  // the bridge owns the slot now
    return false;
  }
  const bool failed = reqs_[rid].failed;
  if (version != nullptr) *version = reqs_[rid].version;
  release_request(rid);
  k_.delete_object(reply);
  if (failed) raise_if_failed(Transfer::kDead, s);
  return true;
}

void BridgeFs::raise_if_failed(Transfer t, std::uint32_t s) const {
  // The dead-stripe contract: the Chrysalis signal, never a raw machine
  // error; an unreachable server gets its own code so callers can retry
  // after the heal instead of repairing.
  if (t == Transfer::kOk) return;
  throw chrys::ThrowSignal{t == Transfer::kDead ? chrys::kThrowNodeDead
                                                : chrys::kThrowNetUnreachable,
                           servers_[s]->node};
}

bool BridgeFs::abandon_request(std::uint32_t rid) {
  Request& rq = reqs_[rid];
  if (rq.replied) return true;  // too late; the token is already out
  rq.abandoned = true;
  return false;
}

std::size_t BridgeFs::queue_depth(std::uint32_t s) const {
  return k_.dq_depth(servers_[s]->req_dq) +
         (servers_[s]->current_rid != kNoRid ? 1 : 0);
}

std::uint32_t BridgeFs::put_request(Request rq) {
  if (!req_free_.empty()) {
    const std::uint32_t rid = req_free_.back();
    req_free_.pop_back();
    reqs_[rid] = std::move(rq);
    return rid;
  }
  reqs_.push_back(std::move(rq));
  return static_cast<std::uint32_t>(reqs_.size() - 1);
}

void BridgeFs::release_request(std::uint32_t rid) { req_free_.push_back(rid); }

std::uint64_t BridgeFs::ship_to_all(Request::Op op, FileId f, FileId f2,
                                    std::uint8_t needle) {
  sim::TraceSpan span(m_, "bridge", "tool", static_cast<std::uint64_t>(op));
  const chrys::Oid reply = k_.make_dual_queue();
  std::uint32_t shipped = 0;
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    if (!servers_[s]->alive) continue;  // degraded: surviving stripes only
    Request rq;
    rq.op = op;
    rq.file = f;
    rq.file2 = f2;
    rq.needle = needle;
    rq.reply_dq = reply;
    if (ship(s, rq) != Transfer::kOk) continue;  // died during the charge
    (void)post(s, std::move(rq));
    ++shipped;
  }
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < shipped; ++i) {
    const std::uint32_t rid = k_.dq_dequeue(reply);
    if (reqs_[rid].failed)
      ++tool_shards_failed_;
    else
      total += reqs_[rid].result;
    release_request(rid);
  }
  k_.delete_object(reply);
  return total;
}

void BridgeFs::tool_copy(FileId src, FileId dst) {
  files_[dst].nblocks = files_[src].nblocks;
  (void)ship_to_all(Request::kToolCopy, src, dst, 0);
}

std::uint64_t BridgeFs::tool_search(FileId f, std::uint8_t needle) {
  return ship_to_all(Request::kToolSearch, f, 0, needle);
}

std::uint32_t BridgeFs::tool_compare(FileId a, FileId b) {
  return static_cast<std::uint32_t>(
      ship_to_all(Request::kToolCompare, a, b, 0));
}

void BridgeFs::tool_sort(FileId src, FileId dst) {
  // Phase 1 (parallel): each server sorts its local blocks into a run.
  (void)ship_to_all(Request::kToolSortLocal, src, 0, 0);
  // Phase 2 (serial tail): the client merges the D runs.
  const std::uint32_t n = files_[src].nblocks;
  constexpr std::uint32_t kRec = kBlockSize / 4;
  std::vector<std::vector<std::uint32_t>> runs(nservers_);
  std::vector<std::uint8_t> buf(kBlockSize);
  for (std::uint32_t b = 0; b < n; ++b) {
    read_block(src, b, buf.data());
    const auto* p = reinterpret_cast<const std::uint32_t*>(buf.data());
    auto& run = runs[b % nservers_];
    run.insert(run.end(), p, p + kRec);
  }
  std::vector<std::size_t> cur(nservers_, 0);
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(n) * kRec);
  m_.compute(static_cast<std::uint64_t>(n) * kRec / 2);  // merge compares
  while (out.size() < static_cast<std::size_t>(n) * kRec) {
    std::uint32_t best = 0;
    bool found = false;
    std::uint32_t who = 0;
    for (std::uint32_t s = 0; s < nservers_; ++s) {
      if (cur[s] < runs[s].size() &&
          (!found || runs[s][cur[s]] < best)) {
        best = runs[s][cur[s]];
        who = s;
        found = true;
      }
    }
    out.push_back(best);
    ++cur[who];
  }
  files_[dst].nblocks = n;
  for (std::uint32_t b = 0; b < n; ++b)
    write_block(dst, b, out.data() + static_cast<std::size_t>(b) * kRec);
}

void BridgeFs::shutdown() {
  (void)ship_to_all(Request::kStop, 0, 0, 0);
}

std::uint64_t BridgeFs::disk_ops() const {
  std::uint64_t t = 0;
  for (const auto& sv : servers_) t += sv->disk.ops();
  return t;
}

}  // namespace bfly::bridge
