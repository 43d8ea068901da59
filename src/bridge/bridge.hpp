// Bridge — a high-performance parallel file system (Dibble, Scott & Ellis,
// ICDCS 1988; Section 3.4 of the paper).
//
// "Any performance limit on the path between secondary storage and
// application program must be considered an I/O bottleneck.  Faster storage
// devices cannot solve the I/O bottleneck problem for large multiprocessor
// systems if data passes through a file system on a single processor."
//
// Bridge distributes each file across multiple storage devices and
// processors using *interleaved files*: consecutive logical blocks live on
// consecutive servers (block k on server k mod D).  Naive programs use the
// ordinary block interface and still benefit from striping; sophisticated
// programs use the tool interface, which ships operations to the processors
// managing the data so each server works on its local blocks — the source
// of Bridge's near-linear speedup in the number of disks for copying,
// searching, comparing, and (with a serial merge tail) sorting.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chrysalis/kernel.hpp"

namespace bfly::bridge {

inline constexpr std::size_t kBlockSize = 4096;

/// A simulated 1988-class disk: one request at a time, seek + transfer,
/// sequential accesses skip the seek.
struct DiskParams {
  sim::Time seek_ns = 22 * sim::kMillisecond;
  sim::Time block_transfer_ns = 4 * sim::kMillisecond;  // ~1 MB/s
};

class Disk {
 public:
  explicit Disk(DiskParams p) : p_(p) {}

  /// Completion time of an access to logical block `lbn` issued at `now`.
  /// `stretch` models a gray-failed controller (sim::FaultPlan slow-node
  /// windows): the whole access takes that many times longer.  Exactly 1.0
  /// keeps the integer-only arithmetic of a healthy run.
  sim::Time access(sim::Time now, std::uint32_t lbn, double stretch = 1.0) {
    sim::Time start = std::max(now, busy_until_);
    sim::Time cost = p_.block_transfer_ns;
    if (!(has_pos_ && lbn == last_ + 1)) cost += p_.seek_ns;
    if (stretch != 1.0)
      cost = static_cast<sim::Time>(static_cast<double>(cost) * stretch);
    busy_until_ = start + cost;
    last_ = lbn;
    has_pos_ = true;
    ++ops_;
    return busy_until_;
  }

  std::uint64_t ops() const { return ops_; }

 private:
  DiskParams p_;
  sim::Time busy_until_ = 0;
  std::uint32_t last_ = 0;
  bool has_pos_ = false;
  std::uint64_t ops_ = 0;
};

using FileId = std::uint32_t;

/// Host-side image of the disks' contents: stable storage that outlives one
/// Machine incarnation.  A BridgeFs constructed with a StableStore loads the
/// blocks written by a previous run and flushes its own on destruction (or
/// persist()), which is what makes checkpoint/restart possible — the
/// simulated machine reboots, the platters do not.
struct StableStore {
  struct FileImage {
    std::string name;
    std::uint32_t nblocks = 0;
  };
  std::uint32_t servers = 0;  ///< geometry the image was written with
  std::vector<FileImage> files;
  /// [server][file][local block] block bytes (empty = never written).
  std::vector<std::vector<std::vector<std::vector<std::uint8_t>>>> stores;

  bool empty() const { return files.empty(); }
};

class BridgeFs {
 public:
  /// Create `servers` Bridge server processes on nodes [0, servers), each
  /// with one disk.  Must be called from a Chrysalis process.  When
  /// `persist` is given, a non-empty image is loaded (its server count must
  /// match) and the store is flushed back on destruction.
  BridgeFs(chrys::Kernel& k, std::uint32_t servers, DiskParams disk = {},
           StableStore* persist = nullptr);
  ~BridgeFs();

  BridgeFs(const BridgeFs&) = delete;
  BridgeFs& operator=(const BridgeFs&) = delete;

  std::uint32_t servers() const { return nservers_; }

  // --- Standard (naive) interface: one block at a time through the client --
  FileId create(std::string name);
  /// Find a file by name (e.g. one loaded from a StableStore image).
  bool lookup(const std::string& name, FileId* out) const;
  /// Logical length in blocks.
  std::uint32_t blocks(FileId f) const;
  /// Block ops throw chrys::ThrowSignal{kThrowNodeDead} when the stripe's
  /// server node has died: that slice of every interleaved file is
  /// unreadable, and the caller is told so explicitly rather than hanging.
  void write_block(FileId f, std::uint32_t index, const void* data);
  void read_block(FileId f, std::uint32_t index, void* out);

  // --- Deadline interface -------------------------------------------------
  // Same operations with a per-request time budget: when the reply has not
  // arrived within `budget` the call abandons the request and returns false
  // instead of blocking forever (today a lost reply could only be rescued
  // by a node-death suspicion).  budget 0 means wait forever — identical
  // charge sequence to the plain calls.  A dead-stripe failure still throws
  // chrys::ThrowSignal{kThrowNodeDead}, exactly like the plain calls.
  bool write_block_for(FileId f, std::uint32_t index, const void* data,
                       sim::Time budget);
  bool read_block_for(FileId f, std::uint32_t index, void* out,
                      sim::Time budget);

  // --- Asynchronous interface (the serve layer's building block) ----------
  // submit_* ships the request and returns immediately; the request id is
  // enqueued on `reply_dq` when served (or fail-replied).  The caller owns
  // `reply_dq` and the rid slot: after dequeuing the token, inspect
  // request_failed(rid) and call finish_request(rid).
  //
  // A caller that stops waiting calls abandon_request(rid).  If the reply
  // already arrived it returns true and the caller consumes the token as
  // usual.  Otherwise the bridge takes ownership of the slot: the server
  // skips the data transfer when it eventually reaches the request (its
  // buffers may be gone) and the slot is reclaimed internally.  When the
  // caller is done with a reply queue it calls release_reply_queue instead
  // of deleting the Oid directly, so a queue with abandoned requests still
  // in flight survives until the last one drains, even past the exit of the
  // process that created it.

  /// Submit a block read.  No data-return transfer is charged here; the
  /// caller charges it after a successful reply (see read_block_for).
  std::uint32_t submit_read(FileId f, std::uint32_t index, void* out,
                            chrys::Oid reply_dq);
  /// Submit a block write (the data ships with the request, charged here).
  std::uint32_t submit_write(FileId f, std::uint32_t index, const void* data,
                             chrys::Oid reply_dq);
  bool request_failed(std::uint32_t rid) const { return reqs_[rid].failed; }
  /// True when a failed request failed for lack of a network path (the
  /// server may be alive on the far side of a partition) rather than a
  /// death.  Callers that repair on failure must not treat these replicas
  /// as lost — their data comes back when the cut heals.
  bool request_unreachable(std::uint32_t rid) const {
    return reqs_[rid].unreachable;
  }
  void finish_request(std::uint32_t rid) { release_request(rid); }
  bool abandon_request(std::uint32_t rid);
  void release_reply_queue(chrys::Oid dq);

  /// Admission-control visibility: requests queued at server `s` plus the
  /// one being served, host-side and uncharged.
  std::size_t queue_depth(std::uint32_t s) const;
  bool server_alive(std::uint32_t s) const { return servers_[s]->alive; }
  /// Server that stripe `index` of every interleaved file lives on.
  std::uint32_t server_of(std::uint32_t index) const {
    return index % nservers_;
  }
  sim::NodeId server_node(std::uint32_t s) const { return servers_[s]->node; }

  // --- Tool interface: the operation runs on every server in parallel -----
  /// Copy src into dst (same interleaving: entirely server-local).
  void tool_copy(FileId src, FileId dst);
  /// Count occurrences of `needle` bytes.
  std::uint64_t tool_search(FileId f, std::uint8_t needle);
  /// Byte-compare two files of equal length; returns number of differing
  /// blocks.
  std::uint32_t tool_compare(FileId a, FileId b);
  /// Sort the file viewed as uint32 records: parallel local sort into runs,
  /// then a serial merge through the client (the paper's sub-linear tail).
  void tool_sort(FileId src, FileId dst);

  /// Stop the server processes (call before the creator exits).
  void shutdown();

  /// Flush the block store to the StableStore now (host-side, untimed —
  /// blocks were durable the moment each write was serviced; this just
  /// copies the image out so the next incarnation can load it).  The
  /// destructor does this too; explicit calls make restart harnesses clear.
  void persist();

  /// Excise a node a failure detector declared dead: fail-reply the
  /// in-flight and queued requests of every server homed there.  Loud
  /// kills arrive automatically via the crash broadcast; silent kills need
  /// this call.  No-op for a live or already-excised node.
  void excise_node(sim::NodeId n);

  std::uint64_t disk_ops() const;

  // --- Degraded operation ------------------------------------------------
  // Tool operations on a degraded file system run on the surviving servers
  // only: results cover the reachable stripes and tool_shards_failed()
  // reports how many slices went unprocessed.

  std::uint32_t servers_alive() const { return servers_alive_; }
  std::uint32_t servers_lost() const { return servers_lost_; }
  /// Per-server tool requests that failed (server died before replying).
  std::uint64_t tool_shards_failed() const { return tool_shards_failed_; }

 private:
  struct Request {
    enum Op {
      kRead,
      kWrite,
      kToolCopy,
      kToolSearch,
      kToolCompare,
      kToolSortLocal,
      kStop
    } op = kRead;
    FileId file = 0;
    FileId file2 = 0;
    std::uint32_t index = 0;      // block ops
    std::uint8_t needle = 0;      // search
    const void* wdata = nullptr;  // write
    void* rdata = nullptr;        // read
    std::uint64_t result = 0;     // tool results
    bool failed = false;          // server died before serving it
    bool unreachable = false;     // failed because no path, not death
    bool abandoned = false;       // client stopped waiting; skip data moves
    bool replied = false;         // reply token enqueued (or fail-replied)
    chrys::Oid reply_dq = chrys::kNoObject;
  };
  struct FileMeta {
    std::string name;
    std::uint32_t nblocks = 0;
  };
  struct Server {
    sim::NodeId node = 0;
    Disk disk;
    chrys::Oid req_dq = chrys::kNoObject;
    // Per (file, local index) block contents; block k of file f lives on
    // server k % D at local index k / D.
    std::vector<std::vector<std::vector<std::uint8_t>>> store;  // [file][local]
    std::uint32_t next_lbn = 0;  // disk block allocation cursor
    bool alive = true;
    std::uint32_t current_rid = 0xffffffffu;  // request being served, if any

    explicit Server(DiskParams p) : disk(p) {}
  };

  void server_loop(std::uint32_t s);
  void handle_node_death(sim::NodeId n);
  /// Fail-reply every request stranded in a dead server's queue.
  void fail_abandoned(std::uint32_t s);
  std::uint64_t ship_to_all(Request::Op op, FileId f, FileId f2,
                            std::uint8_t needle);
  std::vector<std::uint8_t>& block_ref(std::uint32_t s, FileId f,
                                       std::uint32_t local);
  void charge_disk(Server& sv, std::uint32_t lbn);
  std::uint32_t local_count(FileId f, std::uint32_t s) const;
  std::uint32_t put_request(Request rq);
  void release_request(std::uint32_t rid);
  /// Reclaim an abandoned request the moment its server-side story ends;
  /// deletes the reply queue too once the caller released it and no other
  /// abandoned request still points there.
  void complete_abandoned(std::uint32_t rid);
  /// Immediately fail-reply a request whose stripe server is dead, without
  /// shipping anything (uncharged token so the client loop stays uniform).
  std::uint32_t put_failed(Request rq, chrys::Oid reply_dq,
                           bool unreachable = false);

  chrys::Kernel& k_;
  sim::Machine& m_;
  std::uint32_t nservers_ = 0;
  DiskParams disk_params_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<FileMeta> files_;
  std::deque<Request> reqs_;            // host-side request slots (stable refs)
  std::vector<std::uint32_t> req_free_;
  // Abandoned-request bookkeeping: in-flight abandoned rids per reply
  // queue, and queues whose deletion waits on that count reaching zero.
  std::unordered_map<chrys::Oid, std::uint32_t> abandoned_on_dq_;
  std::unordered_set<chrys::Oid> dq_deferred_;
  chrys::Oid done_dq_ = chrys::kNoObject;
  std::uint32_t servers_alive_ = 0;
  std::uint32_t servers_lost_ = 0;
  std::uint64_t tool_shards_failed_ = 0;
  std::uint64_t crash_observer_ = 0;
  StableStore* persist_ = nullptr;
};

}  // namespace bfly::bridge
