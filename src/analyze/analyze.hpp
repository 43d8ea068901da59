// bfly::analyze — happens-before race detection and contention lints over
// the simulated memory stream.
//
// The Analyzer is a sim::Probe: it watches every timed memory
// reference and every synchronization edge the runtimes publish (see
// sim/observe.hpp) and maintains
//
//   * one vector clock per actor (fiber), advanced FastTrack-style:
//     a release joins the actor's clock into the channel and bumps the
//     actor's own component; an acquire joins the channel back;
//   * epoch-style shadow state per 32-bit word — the last write epoch and
//     the set of read epochs not ordered before it;
//   * a lock-acquisition graph (potential-deadlock lint);
//   * per-word local/remote traffic counters (hot-word lint).
//
// Two plain accesses to the same word race when neither happens before the
// other and at least one is a write.  A word ever touched by a PNC atomic
// (fetch_add / fetch_or / test_and_set) becomes a *synchronization cell*:
// the memory module serializes word references, so such a word orders its
// plain accesses too — the detector models each access to it as an
// acquire+release on the word's channel instead of race-checking it.  This
// is exactly the Butterfly idiom: spin-lock releases and monitor unlocks
// are plain stores to a word otherwise managed by test_and_set.
//
// Everything here is host-side and uncharged; attaching an Analyzer leaves
// the simulated run event-identical to a bare one (asserted in
// tests/analyze/uncharged_test.cpp via Instant Replay log equality).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::analyze {

/// One data race: two unordered accesses, at least one a write.
struct RaceReport {
  sim::PhysAddr addr;
  std::string object;      ///< symbolized name, or "node N +0xOFF"
  std::string prior_actor; ///< the access already in shadow state
  sim::MemOp prior_op = sim::MemOp::kRead;
  sim::Time prior_at = 0;
  std::uint64_t prior_clock = 0;  ///< epoch clock of the prior access
  std::string actor;       ///< the access that completed the race
  sim::MemOp op = sim::MemOp::kRead;
  sim::Time at = 0;
  std::uint64_t seen_of_prior = 0;  ///< what `actor` knew of `prior_actor`
};

/// A cycle in the lock-acquisition graph: a potential deadlock even if this
/// run happened to get away with it (complements Moviola's actual-deadlock
/// view).
struct LockCycleReport {
  std::vector<std::uint64_t> locks;  ///< channel ids, in cycle order
  std::vector<std::string> names;    ///< symbolized, parallel to locks
};

/// A word whose remote-reference occupancy of its home module exceeded the
/// threshold — the paper's memory-contention lesson as a diagnostic.
struct HotWordReport {
  sim::PhysAddr addr;
  std::string object;
  std::uint64_t remote_words = 0;
  std::uint64_t local_words = 0;
  double occupancy = 0.0;  ///< remote_words * module_service_ns / elapsed
};

class Analyzer final : public sim::Probe {
 public:
  struct Options {
    /// Remote occupancy fraction above which a word is reported hot.
    double hot_occupancy = 0.05;
    /// Ignore words with fewer remote word-references than this.
    std::uint64_t hot_min_remote_refs = 1000;
    /// Stop recording race reports past this many (each word reports at
    /// most once regardless).
    std::size_t max_races = 64;
  };

  /// Attaches to `m` as a probe for its lifetime.
  explicit Analyzer(sim::Machine& m);
  Analyzer(sim::Machine& m, Options opt);
  ~Analyzer() override;

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Drop race reports whose symbolized object name contains `substring`
  /// (documented suppressions for known-benign races).
  void suppress(std::string substring) {
    suppressions_.push_back(std::move(substring));
  }

  const std::vector<RaceReport>& races() const { return races_; }
  /// Distinct racy words found and not suppressed — counts past max_races
  /// even after races() stops growing.
  std::uint64_t races_total() const { return races_total_; }

  std::vector<LockCycleReport> lock_cycles() const;
  /// Evaluated against the machine's current time.
  std::vector<HotWordReport> hot_words() const;

  /// Human-readable summary of everything found.
  std::string report() const;

  /// Symbolized name for an address ("US.outstanding+0x4" style), falling
  /// back to "node N +0xOFF".
  std::string symbolize(sim::PhysAddr a) const;

  // --- sim::Probe ----------------------------------------------------------
  void on_reference(sim::Fiber* f, sim::NodeId requester, sim::PhysAddr a,
                    std::uint32_t words, sim::MemOp op, sim::Time queue_ns,
                    sim::Time at) override;
  void on_spawn(sim::Fiber* parent, sim::Fiber* child) override;
  void on_free(sim::PhysAddr a, std::size_t bytes) override;
  void on_release(sim::Fiber* f, std::uint64_t chan) override;
  void on_acquire(sim::Fiber* f, std::uint64_t chan) override;
  void on_lock(sim::Fiber* f, std::uint64_t lock, bool held) override;
  void on_label(sim::PhysAddr a, std::size_t bytes,
                const std::string& name) override;

 private:
  static constexpr std::uint32_t kNoActor = 0xffffffffu;

  using Clock = std::vector<std::uint64_t>;  // missing entries read as 0

  struct Actor {
    sim::Fiber* fiber = nullptr;
    std::string name;
    Clock clock;  // clock[self] starts at 1
    std::vector<std::uint64_t> held_locks;
  };

  struct ReadEpoch {
    std::uint32_t actor = kNoActor;
    std::uint64_t clk = 0;
    sim::Time at = 0;
  };

  /// Shadow state for one 32-bit word.
  struct Shadow {
    std::uint32_t wactor = kNoActor;  // last write epoch
    std::uint64_t wclk = 0;
    sim::Time wat = 0;
    std::vector<ReadEpoch> reads;  // reads not ordered before a later write
    bool sync = false;      // touched by an atomic: exempt, orders accesses
    bool reported = false;  // one race report per word
    std::uint64_t local_words = 0;
    std::uint64_t remote_words = 0;
  };

  struct Label {
    std::uint32_t len = 0;
    std::string name;
  };

  static std::uint64_t word_key(sim::NodeId node, std::uint32_t word_index) {
    return (static_cast<std::uint64_t>(node) << 32) | word_index;
  }

  std::uint32_t actor_of(sim::Fiber* f);
  static std::uint64_t component(const Clock& c, std::uint32_t i) {
    return i < c.size() ? c[i] : 0;
  }
  static void join(Clock& into, const Clock& from);

  void check_word(std::uint32_t actor, sim::PhysAddr word_addr, Shadow& s,
                  sim::MemOp op);
  void record_race(std::uint32_t actor, sim::PhysAddr word_addr, Shadow& s,
                   sim::MemOp op, std::uint32_t prior, std::uint64_t prior_clk,
                   sim::Time prior_at, sim::MemOp prior_op);
  void sync_word_access(std::uint32_t actor, std::uint64_t chan);
  bool suppressed(const std::string& object) const;

  sim::Machine& m_;
  Options opt_;

  std::vector<Actor> actors_;
  std::unordered_map<sim::Fiber*, std::uint32_t> actor_ids_;
  std::unordered_map<std::uint64_t, Clock> channels_;
  std::unordered_map<std::uint64_t, Shadow> shadow_;
  // Acquisition-graph edges: held -> newly acquired.
  std::map<std::uint64_t, std::vector<std::uint64_t>> lock_edges_;
  // Symbolization: key = (node<<32|offset) of each labelled range start.
  std::map<std::uint64_t, Label> labels_;
  std::vector<std::string> suppressions_;

  std::vector<RaceReport> races_;
  std::uint64_t races_total_ = 0;
};

}  // namespace bfly::analyze
