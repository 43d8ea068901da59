// bfly::moviola — wait-for-graph deadlock analysis over the simulator's
// blocking edges.
//
// The Detector is a sim::Probe: it watches every blocking wait,
// wakeup, post and spin probe the synchronization layers publish (see
// sim/observe.hpp) and maintains
//
//   * the set of currently blocked fibers, each with the channel it waits
//     on (every Chrysalis event wait, dual-queue dequeue, Bridge
//     request/reply, net::Stream read and US wait_idle funnels through
//     those two kernel primitives, so two hook sites cover the stack);
//   * per-channel poster history — the distinct fibers ever observed
//     feeding each channel, which becomes the wait-for edge heuristic:
//     a blocked waiter *waits for* the fibers that have historically
//     satisfied its channel;
//   * per-channel overwrite counts (an event post that clobbered a
//     pending datum destroyed a wakeup: binary-semaphore semantics);
//   * spin-lock holds and per-fiber probe streaks (spinners are runnable,
//     never blocked — starvation shows up as an unbounded streak).
//
// analyze() builds the wait-for graph over the stuck fibers and classifies
// each strongly connected knot:
//
//   kDeadlock    — a cycle: every member waits on a channel fed only by
//                  other members.  The classic 3-process event ring.
//   kLostWakeup  — blocked on a channel whose history shows an overwrite:
//                  the wakeup existed and was destroyed (paper §3.3's
//                  dual-queue/event pitfalls).
//   kStarvation  — a spinner whose probe streak passed the threshold while
//                  the run made progress elsewhere: runnable but starved.
//   kOrphanWait  — blocked with no cycle and no overwrite: the poster
//                  simply never arrived (or died; see PostOutcome).
//
// Everything here is host-side and uncharged; attaching a Detector leaves
// the simulated run event-identical to a bare one (the machine forfeits
// the charge() fast path while any probe is attached, and the moviola
// tests assert log equality through Instant Replay).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::chrys {
class Kernel;
}

namespace bfly::moviola {

/// Why a set of fibers is stuck.
enum class StuckKind : std::uint8_t {
  kDeadlock,    ///< wait-for cycle among the members
  kLostWakeup,  ///< waiting on a channel whose wakeup was overwritten
  kStarvation,  ///< runnable spinner starved past the probe threshold
  kOrphanWait,  ///< blocked; no cycle, no overwrite — poster never came
};

const char* to_string(StuckKind k);

/// One stuck knot: the fibers involved and the channels between them.
struct StuckReport {
  StuckKind kind = StuckKind::kOrphanWait;
  std::vector<std::string> members;      ///< fiber names, deterministic order
  std::vector<std::uint64_t> channels;   ///< channels the members wait/spin on
  std::vector<std::uint32_t> processes;  ///< kernel oids (0 for non-process)
  std::string detail;                    ///< one-line symbolized summary
};

/// Blocking-discipline violations (the moviola lints).
struct LintReport {
  enum class Kind : std::uint8_t {
    kBlockUnderLock,  ///< blocking kernel call while holding a spin lock
    kChargedHook,     ///< probe hook charged simulated time
  };
  Kind kind = Kind::kBlockUnderLock;
  std::string actor;   ///< fiber name ("<host>" for engine context)
  std::string detail;  ///< symbolized description
};

/// Wait-for-graph deadlock detector.  Attaches to a Machine as a probe for
/// its lifetime; pass the Kernel when you want reports cross-checked against
/// Kernel::blocked_processes() and symbolized with process names.
class Detector final : public sim::Probe {
 public:
  explicit Detector(sim::Machine& m, chrys::Kernel* kernel = nullptr);
  ~Detector() override;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  // --- sim::Probe -------------------------------------------------------------
  void on_block(sim::Fiber* f, std::uint64_t chan, sim::WaitKind kind) override;
  void on_wake(sim::Fiber* f, std::uint64_t chan, sim::WakeReason why) override;
  void on_post(sim::Fiber* f, std::uint64_t chan, sim::PostOutcome out) override;
  void on_spin(sim::Fiber* f, std::uint64_t lock) override;
  void on_lock(sim::Fiber* f, std::uint64_t lock, bool held) override;

  // --- Analysis ---------------------------------------------------------------

  /// Build the wait-for graph over the currently stuck fibers and classify.
  /// Sound when the run has quiesced (after run() returns with
  /// machine.deadlocked(), or from the watchdog): at that point every
  /// blocked fiber is genuinely stuck.  Deterministic: members and reports
  /// are ordered by fiber name.
  std::vector<StuckReport> analyze();

  /// Blocking-discipline lints accumulated so far.  analyze() appends the
  /// charged-hook lint (Machine::hook_charges() != 0) if warranted.
  const std::vector<LintReport>& lints() const { return lints_; }

  /// Human-readable report of the last analyze() plus lints.
  std::string report() const;

  /// Probe-streak threshold for the starvation classification: a fiber
  /// whose current uninterrupted failed-probe streak on one lock meets the
  /// threshold at analyze() time is reported.  Default 256 probes.
  void set_spin_streak_threshold(std::uint64_t probes) {
    spin_streak_threshold_ = probes;
  }

  /// Arm a periodic engine-context watchdog: every `period` it checks
  /// whether the machine has quiesced (live fibers, no scheduled resumes,
  /// every live fiber in a kernel blocking wait) with zero fiber resumes
  /// since the previous tick — a heap reduced to timers that are not
  /// making progress.  On detection it runs analyze(), latches fired(),
  /// and stops re-arming (so a wedged run's heap can drain and run() can
  /// return).  Re-arms otherwise until the last fiber exits.  Choose a
  /// period longer than the longest legitimate timed wait in the workload:
  /// a fiber parked in dq_dequeue_for is indistinguishable from a stuck
  /// one until its timeout fires.
  void arm_watchdog(sim::Time period);
  bool fired() const { return fired_; }

  /// Reports captured by the last analyze() (same vector analyze()
  /// returned; the watchdog path stores its results here).
  const std::vector<StuckReport>& findings() const { return findings_; }

  // --- Introspection (tests) --------------------------------------------------
  std::size_t blocked_now() const { return blocked_.size(); }
  std::uint64_t overwrites(std::uint64_t chan) const;

 private:
  struct WaitState {
    std::uint64_t chan = 0;
    sim::WaitKind kind = sim::WaitKind::kEvent;
  };
  struct ChanState {
    std::vector<sim::Fiber*> posters;  ///< distinct, in first-post order
    std::uint64_t overwrites = 0;
    sim::WaitKind kind = sim::WaitKind::kEvent;  ///< from the last block
  };
  struct SpinState {
    std::uint64_t lock = 0;
    std::uint64_t streak = 0;  ///< failed probes since last acquisition
  };

  std::string fiber_name(sim::Fiber* f) const;
  std::string chan_name(std::uint64_t chan) const;
  void append_charged_hook_lint();
  void watchdog_tick();

  sim::Machine& m_;
  chrys::Kernel* kernel_ = nullptr;

  std::unordered_map<sim::Fiber*, WaitState> blocked_;
  std::unordered_map<std::uint64_t, ChanState> chans_;
  std::unordered_map<std::uint64_t, sim::Fiber*> lock_holder_;
  std::unordered_map<sim::Fiber*, std::unordered_set<std::uint64_t>> held_;
  std::unordered_map<sim::Fiber*, SpinState> spin_;

  std::vector<LintReport> lints_;
  std::vector<StuckReport> findings_;
  std::uint64_t spin_streak_threshold_ = 256;
  bool charged_hook_reported_ = false;

  // Watchdog state.
  sim::Time watchdog_period_ = 0;
  std::uint64_t last_resumes_ = 0;
  bool fired_ = false;
};

}  // namespace bfly::moviola
