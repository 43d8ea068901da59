// The simulated Butterfly machine.
//
// A Machine owns the event engine, the switch fabric, one memory module per
// node, and every fiber spawned onto a node.  All simulated code interacts
// with the hardware through this class:
//
//   * charge()/compute()/flops() advance the calling fiber's CPU time;
//   * read()/write()/atomic ops are timed memory transactions against the
//     owning node's module (queueing behind a busy module models the
//     "remote references steal memory cycles" effect from the paper);
//   * block_copy() models the PNC's microcoded block transfer;
//   * park()/wakeup() are the primitives the Chrysalis scheduler builds
//     blocking synchronization from.
//
// The engine is single-threaded and ties are sequence-numbered, so a run is
// a pure function of (config, program) — the property Instant Replay's
// verification tests depend on.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/fiber.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/switch_fabric.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class Machine {
 public:
  /// `faults` scripts hardware failures for this run; the default empty plan
  /// injects nothing and leaves the event stream byte-identical to a machine
  /// built before fault injection existed.
  explicit Machine(MachineConfig cfg, FaultPlan faults = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return cfg_; }
  Engine& engine() { return engine_; }
  Time now() const { return engine_.now(); }
  std::uint32_t nodes() const { return cfg_.nodes; }
  /// Deterministic RNG stream (seeded from cfg.seed).
  Rng& rng() { return rng_; }
  MachineStats& stats() { return stats_; }
  SwitchFabric& fabric() { return fabric_; }

  // --- Fibers ---------------------------------------------------------------

  /// Create a fiber bound to `node`, runnable immediately (resumed by the
  /// engine at the current time unless `start_delay` is given).
  Fiber* spawn(NodeId node, std::function<void()> body,
               std::string name = {}, Time start_delay = 0);

  /// Create a fiber that stays parked until the first wakeup() — used by
  /// schedulers that control dispatch themselves.
  Fiber* spawn_parked(NodeId node, std::function<void()> body,
                      std::string name = {});

  /// Node of the currently executing fiber.
  NodeId current_node() const;
  /// Node of an arbitrary live fiber.
  NodeId node_of(Fiber* f) const;

  /// Run the machine until no events remain.  Returns final time.
  Time run();

  /// True when the last run() ended with live-but-blocked fibers: the
  /// simulated program deadlocked.  Moviola uses this plus the wait-for
  /// edges recorded by the synchronization layers.
  bool deadlocked() const { return live_count_ != 0; }
  std::vector<Fiber*> blocked_fibers() const;
  /// True while `f` has not finished or been reclaimed.  Probes
  /// hold raw Fiber pointers across kill-unwinds (which skip the wake
  /// hooks); this lets them prune the dead before dereferencing.  A reused
  /// address can alias a new fiber — fine for diagnosis, as the new
  /// fiber's name and state replace the old.
  bool fiber_live(Fiber* f) const { return fibers_.count(f) != 0; }

  /// True when live fibers remain but none has a resume scheduled: the
  /// event heap has quiesced to closure events (timers, watchdogs) only,
  /// so no fiber can ever run again unless a timer wakes it.  Meaningful
  /// from engine context (a posted closure); a running fiber is by
  /// definition not quiescent.  This is the trigger condition for
  /// bfly::moviola's deadlock analysis.
  bool quiescent() const {
    return live_count_ != 0 && engine_.pending_fiber_events() == 0;
  }
  /// Fibers spawned and not yet finished.
  std::size_t live_fibers() const { return live_count_; }

  /// Host-side substrate cost of the run so far (events, switches,
  /// switch-free charges).  Observational; see sim/stats.hpp.
  HostPerf host_perf() const {
    return HostPerf{engine_.events_dispatched(), fiber_resumes_,
                    fastpath_charges_, fastpath_};
  }
  /// True when charge() may take the switch-free fast path this run
  /// (MachineConfig::host_fastpath).
  bool fastpath_enabled() const { return fastpath_; }

  // --- Faults ----------------------------------------------------------------

  const FaultPlan& faults() const { return faults_; }
  /// True when any fault can occur this run (plan non-empty or a kill was
  /// scheduled programmatically).  Layers may use this to gate recovery
  /// bookkeeping so healthy runs stay byte-identical to pre-fault builds.
  bool faults_possible() const { return fault_checks_; }

  bool node_alive(NodeId n) const { return !node_dead_[n]; }
  std::uint32_t dead_nodes() const { return dead_nodes_count_; }

  /// True when a timed reference from `a` to `b` could currently complete:
  /// no active partition window cuts the pair and the switch fabric still
  /// has a healthy path (default or detour).  Says nothing about whether
  /// `b` is alive — dead and unreachable are distinct conditions (see
  /// NodeDeadError vs NetUnreachableError).  Host-side and uncharged, so
  /// recovery layers can consult ground truth without perturbing the run.
  bool reachable(NodeId a, NodeId b) const;

  /// Register a callback fired in engine context when a partition window
  /// heals (argument: index into faults().partitions).  Registering posts
  /// the plan's heal events, which keeps the engine running until the last
  /// subscribed heal — layers that reconcile on heal (bfly::serve) want
  /// exactly that.  Returns a handle for remove_heal_observer.
  std::uint64_t on_partition_heal(std::function<void(std::size_t)> fn);
  void remove_heal_observer(std::uint64_t id);

  /// Gray-failure stretch for `n`'s memory module at the current simulated
  /// time: 1.0 when healthy, the plan's factor inside a slow window.  Layers
  /// that model their own service stages off the memory path (Bridge's disk
  /// controller) multiply their charges by this so a slow node is slow all
  /// the way down.  Exact 1.0 (and zero float math) when the plan has no
  /// slow windows.
  double slow_factor(NodeId n) const;

  /// Schedule `node` to die at absolute simulated time `at` (in addition to
  /// any kills in the plan).  Must be called before run() reaches `at`.
  /// A silent kill skips the crash broadcast (see on_node_crash).
  void kill_node(NodeId node, Time at, bool silent = false);

  /// Register a callback invoked in engine context the moment a node dies,
  /// before the node's fibers unwind.  Observers run in registration order
  /// (the Kernel registers first, so higher layers see consistent kernel
  /// state).  They must not perform timed operations.  Returns a handle for
  /// remove_death_observer; holders that can die before the Machine must
  /// unregister in their destructor.
  ///
  /// Death observers model the simulator's own bookkeeping: they fire for
  /// every kill, silent or not (the scheduler must stop dispatching a dead
  /// node's processes regardless of who heard the crash).
  std::uint64_t on_node_death(std::function<void(NodeId)> fn);
  void remove_death_observer(std::uint64_t id);

  /// Like on_node_death, but models the machine-check broadcast peers
  /// observe: crash observers do NOT fire for silent kills.  Recovery
  /// layers (Uniform System, net::Mesh, Bridge) subscribe here; a silent
  /// death reaches them only through a failure detector (bfly::rescue) or a
  /// reference that touches the corpse.  Crash observers run after every
  /// death observer, still before the node's fibers unwind.
  std::uint64_t on_node_crash(std::function<void(NodeId)> fn);
  void remove_crash_observer(std::uint64_t id);

  // --- Time ------------------------------------------------------------------

  /// Consume `ns` of CPU time on the calling fiber.
  void charge(Time ns);
  /// Consume integer-op time (`n` register-level operations).
  void compute(std::uint64_t n) { charged_compute(n * cfg_.int_op_ns); }
  /// Consume floating-point time.
  void flops(std::uint64_t n) { charged_compute(n * cfg_.flop_ns); }
  /// Consume an explicit amount of compute time (tracked in NodeStats).
  void charged_compute(Time ns);
  /// Block the calling fiber until absolute time `t`.
  void sleep_until(Time t);

  /// Block the calling fiber until another fiber calls wakeup() on it.
  void park();
  /// Make a parked fiber runnable after `delay`.  Safe to call from the
  /// engine or any fiber; no-op if the fiber already finished.
  void wakeup(Fiber* f, Time delay = 0);

  /// Discard a parked fiber that will never run again (e.g. a suspended
  /// coroutine at teardown).  The fiber must not have a pending resume.
  void abandon(Fiber* f);

  // --- Physical memory --------------------------------------------------------

  /// First-fit allocation in `node`'s memory.  Throws SimError when the
  /// node is exhausted.  Untimed (the OS layer charges its own costs).
  PhysAddr alloc(NodeId node, std::size_t bytes, std::size_t align = 8);
  void free(PhysAddr addr, std::size_t bytes);
  /// Bytes currently allocated on a node.
  std::size_t allocated_on(NodeId node) const;
  /// Blocks on a node's free list (allocator introspection for tests:
  /// coalescing must keep this bounded under alloc/free churn).
  std::size_t free_blocks_on(NodeId node) const {
    return node_[node].free_list.size();
  }

  /// Timed single reference.  sizeof(T) must be <= 8.
  template <typename T>
  T read(PhysAddr a) {
    static_assert(sizeof(T) <= 8);
    reference(a, word_count(sizeof(T)), MemOp::kRead);
    T v;
    std::memcpy(&v, raw(a, sizeof(T)), sizeof(T));
    return v;
  }

  template <typename T>
  void write(PhysAddr a, T v) {
    static_assert(sizeof(T) <= 8);
    reference(a, word_count(sizeof(T)), MemOp::kWrite);
    std::memcpy(raw(a, sizeof(T)), &v, sizeof(T));
  }

  /// PNC atomic operations (linearized at completion time).  When switch
  /// combining is armed (MachineConfig::switch_combining + contention
  /// modelling), concurrent fetch_add_u32 calls on one word may merge at a
  /// switch stage instead of queueing at the home module — see
  /// SwitchFabric::combine_add; the data result is identical either way.
  std::uint32_t fetch_add_u32(PhysAddr a, std::uint32_t delta);
  std::uint32_t fetch_or_u32(PhysAddr a, std::uint32_t bits);
  /// Atomically set the word to 1; returns the previous value.
  std::uint32_t test_and_set(PhysAddr a);
  /// Atomic exchange: store `v`, return the previous value.
  std::uint32_t swap_u32(PhysAddr a, std::uint32_t v);
  /// Compare-and-swap: store `desired` iff the word equals `expect`.
  /// Returns the previous value (== expect exactly when the store landed).
  std::uint32_t cas_u32(PhysAddr a, std::uint32_t expect,
                        std::uint32_t desired);

  /// Microcoded block transfer between physical locations.  Charged as one
  /// round trip plus a per-word streaming cost; occupies the source and
  /// destination modules while streaming.
  void block_copy(PhysAddr dst, PhysAddr src, std::size_t bytes);
  /// Block transfer into the calling fiber's private (register/stack) space.
  void block_read(void* host_dst, PhysAddr src, std::size_t bytes);
  void block_write(PhysAddr dst, const void* host_src, std::size_t bytes);

  /// Charge `n` back-to-back word references to `target` in a single event
  /// (used by tight inner loops; contention is accounted in aggregate).
  void access_words(PhysAddr a, std::uint32_t n, bool write = false);

  // --- Probes (see sim/observe.hpp) -------------------------------------------
  // Every hook is host-side and uncharged: attaching probes leaves the
  // simulated event stream byte-identical to a bare run.  Annotation sites
  // pass string literals and integers only, so an unobserved run does no
  // work beyond one emptiness test and allocates nothing.

  /// Add `p` to the probe list; probes are called in attach order.
  void attach(Probe* p) { probes_.push_back(p); }
  /// Remove `p` from the probe list (no-op if it is not attached).
  void detach(Probe* p) { std::erase(probes_, p); }

  /// Publish a happens-before release/acquire edge on `chan` for the
  /// calling context.  Synchronization layers call these from the fiber
  /// performing the operation.
  void observe_release(std::uint64_t chan) {
    notify([&](Probe& p) { p.on_release(Fiber::current(), chan); });
  }
  void observe_acquire(std::uint64_t chan) {
    notify([&](Probe& p) { p.on_acquire(Fiber::current(), chan); });
  }
  /// The calling fiber acquired (`held`) or released spin lock `lock`.
  void observe_lock(std::uint64_t lock, bool held) {
    notify([&](Probe& p) { p.on_lock(Fiber::current(), lock, held); });
  }
  /// Name a range of physical memory for diagnostic reports.
  void label_memory(PhysAddr a, std::size_t bytes, const std::string& name) {
    notify([&](Probe& p) { p.on_label(a, bytes, name); });
  }
  /// The calling fiber is about to block on `chan`.
  void observe_block(std::uint64_t chan, WaitKind kind) {
    notify([&](Probe& p) { p.on_block(Fiber::current(), chan, kind); });
  }
  /// The calling fiber returned from a blocking wait on `chan`.
  void observe_wake(std::uint64_t chan, WakeReason why) {
    notify([&](Probe& p) { p.on_wake(Fiber::current(), chan, why); });
  }
  /// A post to `chan` with the given delivery outcome.
  void observe_post(std::uint64_t chan, PostOutcome out) {
    notify([&](Probe& p) { p.on_post(Fiber::current(), chan, out); });
  }
  /// One failed spin probe on `lock` by the calling fiber.
  void observe_spin(std::uint64_t lock) {
    notify([&](Probe& p) { p.on_spin(Fiber::current(), lock); });
  }
  /// Open a span on the calling context's track.
  void trace_begin(const char* cat, const char* name, std::uint64_t arg = 0) {
    notify([&](Probe& p) {
      p.on_span_begin(Fiber::current(), trace_node(), cat, name, arg);
    });
  }
  /// Close the innermost open span on the calling context's track.
  void trace_end() {
    notify([&](Probe& p) { p.on_span_end(Fiber::current(), trace_node()); });
  }
  /// A point event on the calling context's track.
  void trace_instant(const char* cat, const char* name,
                     std::uint64_t arg = 0) {
    notify([&](Probe& p) {
      p.on_instant(Fiber::current(), trace_node(), cat, name, arg);
    });
  }

  /// Charges issued from inside a probe hook.  The hooks' contract is
  /// strictly host-side work; a nonzero count means a probe perturbed the
  /// run it was watching (the blocking-discipline lint reports it).
  std::uint64_t hook_charges() const { return hook_charges_; }

  // --- Untimed backdoor (tests, tooling, result extraction) -------------------
  template <typename T>
  T peek(PhysAddr a) const {
    T v;
    std::memcpy(&v, raw_const(a, sizeof(T)), sizeof(T));
    return v;
  }
  template <typename T>
  void poke(PhysAddr a, T v) {
    std::memcpy(raw_mut(a, sizeof(T)), &v, sizeof(T));
  }
  void peek_bytes(void* dst, PhysAddr a, std::size_t n) const {
    std::memcpy(dst, raw_const(a, n), n);
  }
  void poke_bytes(PhysAddr a, const void* src, std::size_t n) {
    std::memcpy(raw_mut(a, n), src, n);
  }

 private:
  /// RAII marker bracketing every probe-hook invocation: charge() counts
  /// charges issued while one is live (hook_charges_), turning "charged
  /// work inside an uncharged hook" from a silent heisenbug into a lint.
  class HookScope {
   public:
    explicit HookScope(Machine* m) : m_(m) { ++m_->hook_depth_; }
    ~HookScope() { --m_->hook_depth_; }
    HookScope(const HookScope&) = delete;
    HookScope& operator=(const HookScope&) = delete;

   private:
    Machine* m_;
  };

  /// Run `call` on every attached probe, in attach order, inside one
  /// HookScope.  One emptiness test when nothing is attached.
  template <typename Call>
  void notify(Call call) {
    if (probes_.empty()) return;
    HookScope h(this);
    for (Probe* p : probes_) call(*p);
  }

  struct FiberCtl {
    std::unique_ptr<Fiber> fiber;
    NodeId node = 0;
    bool resume_pending = false;
    bool killed = false;  // node died; unwind via FiberKill at next yield
    // Intrusive links for the live list (spawned and not yet finished), in
    // spawn order.  O(1) reap instead of the O(live) vector erase; order is
    // part of the deterministic contract (do_kill unwinds in spawn order).
    FiberCtl* live_prev = nullptr;
    FiberCtl* live_next = nullptr;
  };
  struct FreeBlock {
    std::uint32_t offset;
    std::uint32_t size;
  };
  struct Node {
    std::vector<std::uint8_t> mem;   // grown lazily up to memory_per_node
    std::vector<FreeBlock> free_list;
    std::uint32_t high_water = 0;    // bytes ever touched
    std::size_t allocated = 0;
    Time module_busy_until = 0;
  };

  static std::uint32_t word_count(std::size_t bytes) {
    return static_cast<std::uint32_t>((bytes + 3) / 4);
  }

  /// Perform + charge one reference of `words` words to a.node.
  void reference(PhysAddr a, std::uint32_t words, MemOp op);
  /// Compute completion time of a reference departing now; updates module
  /// occupancy and stats but does not charge.
  /// The fetch_add reference path with switch combining armed: either
  /// merges into an in-flight add's window or leads a new transaction and
  /// opens one.  Charged like reference(a, 1, kAtomic).
  void combining_fetch_add_reference(PhysAddr a);
  Time reference_finish(NodeId requester, NodeId home, std::uint32_t words,
                        Time* queue_ns);
  /// Report one reference, its finish time computed, to the probes
  /// (uncharged).  Fires before the requester is charged.
  void observe_reference(NodeId requester, PhysAddr a, std::uint32_t words,
                         MemOp op, Time queue_ns) {
    notify([&](Probe& p) {
      p.on_reference(Fiber::current(), requester, a, words, op, queue_ns,
                     engine_.now());
    });
  }
  /// Node of the calling context for trace events (kTraceHostNode when no
  /// fiber is running).
  NodeId trace_node() const;

  std::uint8_t* raw(PhysAddr a, std::size_t n);
  std::uint8_t* raw_mut(PhysAddr a, std::size_t n);
  const std::uint8_t* raw_const(PhysAddr a, std::size_t n) const;
  void ensure_backing(Node& nd, std::size_t end) const;

  FiberCtl* ctl(Fiber* f);
  /// Control block of the currently executing fiber, or nullptr from engine
  /// context.  One pointer compare on the hot path: cur_ctl_ is maintained
  /// around every resume, and the map lookup only backstops foreign fibers
  /// (a fiber of another Machine, or one driven outside this engine).
  FiberCtl* current_ctl() const {
    Fiber* f = Fiber::current();
    if (f == nullptr) return nullptr;
    if (cur_ctl_ != nullptr && cur_ctl_->fiber.get() == f) return cur_ctl_;
    auto it = fibers_.find(f);
    return it == fibers_.end() ? nullptr
                               : const_cast<FiberCtl*>(&it->second);
  }
  void schedule_resume(FiberCtl* c, Time at);
  /// Trampoline for the engine's typed fiber events (see Engine::
  /// set_fiber_handler): `payload` is the FiberCtl* scheduled by
  /// schedule_resume.
  static void fiber_event(void* machine, void* payload);
  /// Resume `c` now, maintaining cur_ctl_, and reap it if it finished.
  void do_resume(FiberCtl* c);
  void reap(FiberCtl* c);
  void live_link(FiberCtl* c);
  void live_unlink(FiberCtl* c);

  /// Unwind the calling fiber if its node died.  No-op while an exception
  /// is already in flight (yielding mid-unwind would corrupt the fiber).
  void check_kill(FiberCtl* c);
  /// Raise NodeDeadError (after charging the failed round trip) when a
  /// timed operation targets a dead node.
  // Address validation happens before the timing model touches per-node
  // state: a wild node id must raise SimError, not index off node_[].
  void check_node(NodeId home) const;
  void check_target(NodeId home);
  void do_kill(NodeId n, bool silent);
  void maybe_mem_fault(NodeId home);
  /// True when an active partition window separates a and b right now.
  bool cut_between(NodeId a, NodeId b) const;
  /// Raise NetUnreachableError (after charging the PNC's futile retry
  /// budget) when a timed operation crosses an active partition.
  void check_reach(NodeId req, NodeId home);
  void fire_heal(std::size_t idx);

  MachineConfig cfg_;
  FaultPlan faults_;
  Engine engine_;
  SwitchFabric fabric_;
  Rng rng_;
  Rng fault_rng_;
  MachineStats stats_;
  mutable std::vector<Node> node_;
  // Fiber* -> control block.  unordered_map gives the pointer stability the
  // engine's typed events and cur_ctl_ rely on; the hot paths never touch
  // it (current_ctl() caches, typed events carry the FiberCtl* directly).
  std::unordered_map<Fiber*, FiberCtl> fibers_;
  FiberCtl* live_head_ = nullptr;  // live fibers, intrusive, spawn order
  FiberCtl* live_tail_ = nullptr;
  std::size_t live_count_ = 0;
  FiberCtl* cur_ctl_ = nullptr;  // control block of the running fiber

  bool fastpath_ = true;  // cfg.host_fastpath
  std::uint64_t fiber_resumes_ = 0;
  std::uint64_t fastpath_charges_ = 0;

  bool fault_checks_ = false;  // any fault possible this run
  bool combining_ = false;     // switch combining armed (fetch_add hot path)
  bool has_slow_ = false;      // plan carries slow-node windows
  std::vector<std::uint8_t> node_dead_;
  std::uint32_t dead_nodes_count_ = 0;
  // Partition windows, precomputed as per-node side maps (0 = unlisted,
  // 1 = side_a, 2 = side_b) for O(1) cut checks on the reference path.
  struct Cut {
    Time start = 0;
    Time heal = 0;
    std::vector<std::int8_t> side;
  };
  std::vector<Cut> cuts_;
  bool has_cuts_ = false;
  struct HealObserver {
    std::uint64_t id;
    std::function<void(std::size_t)> fn;
  };
  std::vector<HealObserver> heal_observers_;
  bool heal_events_posted_ = false;
  struct DeathObserver {
    std::uint64_t id;
    std::function<void(NodeId)> fn;
  };
  std::vector<DeathObserver> death_observers_;
  std::vector<DeathObserver> crash_observers_;
  std::uint64_t next_observer_id_ = 1;
  std::vector<Probe*> probes_;        // attach order
  int hook_depth_ = 0;               // live HookScopes on this host stack
  std::uint64_t hook_charges_ = 0;   // charges issued from inside a hook
};

/// RAII span: begins on construction, ends on destruction — so spans close
/// correctly across early returns, NodeDeadError, and FiberKill unwinds.
class TraceSpan {
 public:
  TraceSpan(Machine& m, const char* cat, const char* name,
            std::uint64_t arg = 0)
      : m_(m) {
    m_.trace_begin(cat, name, arg);
  }
  ~TraceSpan() { m_.trace_end(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Machine& m_;
};

}  // namespace bfly::sim
