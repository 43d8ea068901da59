#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <exception>

namespace bfly::sim {

Machine::Machine(MachineConfig cfg, FaultPlan faults)
    : cfg_(cfg),
      faults_(std::move(faults)),
      fabric_(cfg),
      rng_(cfg.seed),
      fault_rng_(faults_.seed),
      stats_(cfg.nodes),
      node_(cfg.nodes),
      node_dead_(cfg.nodes, 0) {
  engine_.set_fiber_handler(&Machine::fiber_event, this);
  fastpath_ = cfg_.host_fastpath;
  combining_ = fabric_.combining();
  if (combining_) fabric_.set_stats(&stats_);
  if (faults_.any()) {
    fault_checks_ = true;
    fabric_.configure_faults(faults_, &fault_rng_);
    fabric_.set_stats(&stats_);
    // Re-validate the whole kill list: a plan assembled by hand (directly
    // into node_kills) must hit the same duplicate / Time-0 checks as one
    // built through kill().
    faults_.validate();
    for (const FaultPlan::NodeKill& k : faults_.node_kills) {
      if (k.node >= cfg_.nodes) throw SimError("FaultPlan: bad node in kill");
      engine_.post_at(k.at,
                      [this, n = k.node, s = k.silent] { do_kill(n, s); });
    }
    for (const FaultPlan::SlowNode& s : faults_.slow_nodes) {
      if (s.node >= cfg_.nodes)
        throw SimError("FaultPlan: bad node in slow window");
    }
    has_slow_ = !faults_.slow_nodes.empty();
    for (const FaultPlan::CardFail& c : faults_.card_fails) {
      if (c.stage >= fabric_.stages() || c.card >= fabric_.cards())
        throw SimError("FaultPlan: bad stage/card in card fail");
      engine_.post_at(c.at, [this, s = c.stage, cd = c.card] {
        fabric_.fail_card(s, cd);
      });
    }
    for (const FaultPlan::LinkFail& l : faults_.link_fails) {
      if (l.stage >= fabric_.stages() || l.link >= fabric_.wires())
        throw SimError("FaultPlan: bad stage/link in link fail");
      engine_.post_at(l.at, [this, s = l.stage, w = l.link] {
        fabric_.fail_link(s, w);
      });
    }
    for (const FaultPlan::Partition& p : faults_.partitions) {
      Cut cut;
      cut.start = p.start;
      cut.heal = p.heal;
      cut.side.assign(cfg_.nodes, 0);
      for (NodeId n : p.side_a) {
        if (n >= cfg_.nodes)
          throw SimError("FaultPlan: bad node in partition side");
        cut.side[n] = 1;
      }
      for (NodeId n : p.side_b) {
        if (n >= cfg_.nodes)
          throw SimError("FaultPlan: bad node in partition side");
        cut.side[n] = 2;
      }
      cuts_.push_back(std::move(cut));
    }
    has_cuts_ = !cuts_.empty();
  }
}

Machine::~Machine() = default;

// --- Fibers -------------------------------------------------------------

Fiber* Machine::spawn(NodeId node, std::function<void()> body,
                      std::string name, Time start_delay) {
  Fiber* f = spawn_parked(node, std::move(body), std::move(name));
  schedule_resume(ctl(f), engine_.now() + start_delay);
  return f;
}

Fiber* Machine::spawn_parked(NodeId node, std::function<void()> body,
                             std::string name) {
  if (node >= cfg_.nodes) throw SimError("spawn: bad node id");
  if (fault_checks_ && node_dead_[node]) throw NodeDeadError(node);
  auto fiber = std::make_unique<Fiber>(std::move(body),
                                       cfg_.fiber_stack_bytes,
                                       std::move(name));
  Fiber* f = fiber.get();
  FiberCtl c;
  c.fiber = std::move(fiber);
  c.node = node;
  auto [it, ok] = fibers_.emplace(f, std::move(c));
  assert(ok);
  (void)ok;
  live_link(&it->second);
  notify([&](Probe& p) { p.on_spawn(Fiber::current(), f); });
  return f;
}

Machine::FiberCtl* Machine::ctl(Fiber* f) {
  auto it = fibers_.find(f);
  return it == fibers_.end() ? nullptr : &it->second;
}

NodeId Machine::current_node() const {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("current_node: not on a fiber");
  return c->node;
}

NodeId Machine::node_of(Fiber* f) const {
  if (cur_ctl_ != nullptr && cur_ctl_->fiber.get() == f) return cur_ctl_->node;
  auto it = fibers_.find(f);
  if (it == fibers_.end()) throw SimError("node_of: unknown fiber");
  return it->second.node;
}

NodeId Machine::trace_node() const {
  FiberCtl* c = current_ctl();
  return c == nullptr ? kTraceHostNode : c->node;
}

void Machine::live_link(FiberCtl* c) {
  c->live_prev = live_tail_;
  c->live_next = nullptr;
  if (live_tail_ != nullptr) {
    live_tail_->live_next = c;
  } else {
    live_head_ = c;
  }
  live_tail_ = c;
  ++live_count_;
}

void Machine::live_unlink(FiberCtl* c) {
  if (c->live_prev != nullptr) {
    c->live_prev->live_next = c->live_next;
  } else {
    live_head_ = c->live_next;
  }
  if (c->live_next != nullptr) {
    c->live_next->live_prev = c->live_prev;
  } else {
    live_tail_ = c->live_prev;
  }
  --live_count_;
}

void Machine::reap(FiberCtl* c) {
  live_unlink(c);
  fibers_.erase(c->fiber.get());  // destroys c and frees the stack
}

void Machine::fiber_event(void* machine, void* payload) {
  static_cast<Machine*>(machine)->do_resume(static_cast<FiberCtl*>(payload));
}

void Machine::do_resume(FiberCtl* c) {
  // A FiberCtl with a pending resume is never reaped (do_kill defers to the
  // pending event, abandon() forbids it), so `c` is always alive here.
  assert(c->resume_pending);
  c->resume_pending = false;
  Fiber* f = c->fiber.get();
  ++fiber_resumes_;
  cur_ctl_ = c;
  f->resume();
  cur_ctl_ = nullptr;
  if (f->finished()) reap(c);
}

void Machine::schedule_resume(FiberCtl* c, Time at) {
  assert(!c->resume_pending);
  c->resume_pending = true;
  engine_.post_fiber_at(at, c);
}

Time Machine::run() { return engine_.run(); }

std::vector<Fiber*> Machine::blocked_fibers() const {
  std::vector<Fiber*> out;
  for (FiberCtl* c = live_head_; c != nullptr; c = c->live_next)
    if (c->fiber->state() == Fiber::State::kBlocked)
      out.push_back(c->fiber.get());
  return out;
}

// --- Time ----------------------------------------------------------------

void Machine::check_kill(FiberCtl* c) {
  if (!c->killed) return;
  // A destructor running during the FiberKill unwind may reach a yield
  // point; yielding mid-unwind would corrupt the fiber, so timed operations
  // silently complete instantly on an already-dying fiber.
  if (std::uncaught_exceptions() > 0) return;
  throw FiberKill{};
}

void Machine::charge(Time ns) {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("charge: not on a fiber");
  if (fault_checks_ && c->killed) {
    check_kill(c);
    return;  // in-flight exception: complete instantly, do not yield
  }
  const Time at = engine_.now() + ns;
  // Switch-free fast path: when this fiber's resume would be *strictly*
  // earlier than every pending event, the slow path's yield provably hands
  // control straight back — the engine would pop our fresh resume event
  // first (strictly earlier beats every pending time; a tie would lose on
  // sequence number, hence "strictly") and no other fiber, fault, or
  // probe-visible action can run in between.  So warp the clock and keep
  // going: no heap traffic, no context switch.  Disabled whenever anything
  // could legitimately interleave or watch: pending kills/faults
  // (fault_checks_), a requested engine stop, or any attached probe
  // (instrumented runs deliberately ride the battle-tested slow path; the
  // uncharged harnesses then cross-check the two).  The skipped
  // post_fiber_at also never burns an engine sequence number, which is
  // unobservable: relative order among the *other* events is unchanged.
  if (fastpath_ && !fault_checks_ && probes_.empty() &&
      !engine_.stop_requested() &&
      (engine_.empty() || at < engine_.next_time())) {
    engine_.warp_to(at);
    ++fastpath_charges_;
    return;
  }
  // A charge from inside a probe hook breaks the uncharged contract (hooks
  // run only when a probe is attached, which forfeits the fast path above —
  // so this check is complete here).
  if (hook_depth_ != 0) ++hook_charges_;
  schedule_resume(c, at);
  Fiber::yield_to_engine();
  if (fault_checks_) check_kill(c);
}

void Machine::charged_compute(Time ns) {
  stats_.node[current_node()].compute_ns += ns;
  charge(ns);
}

void Machine::sleep_until(Time t) {
  const Time n = now();
  charge(t > n ? t - n : 0);
}

void Machine::park() {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("park: not on a fiber");
  if (fault_checks_) {
    if (c->killed) {
      check_kill(c);
      return;
    }
    Fiber::yield_to_engine();
    check_kill(c);
    return;
  }
  Fiber::yield_to_engine();
}

void Machine::wakeup(Fiber* f, Time delay) {
  FiberCtl* c = ctl(f);
  if (c == nullptr) return;  // already finished
  if (c->killed) return;     // doomed; it unwinds through its own path
  if (c->resume_pending || f->state() == Fiber::State::kRunning) {
    // The target is not parked.  Single-threaded cooperative scheduling
    // means a correct synchronization layer re-checks its state before
    // parking, so dropping this wakeup is safe and expected.
    return;
  }
  schedule_resume(c, engine_.now() + delay);
}

// --- Faults ---------------------------------------------------------------

void Machine::kill_node(NodeId node, Time at, bool silent) {
  if (node >= cfg_.nodes) throw SimError("kill_node: bad node");
  fault_checks_ = true;
  engine_.post_at(at, [this, node, silent] { do_kill(node, silent); });
}

std::uint64_t Machine::on_node_death(std::function<void(NodeId)> fn) {
  const std::uint64_t id = next_observer_id_++;
  death_observers_.push_back(DeathObserver{id, std::move(fn)});
  return id;
}

void Machine::remove_death_observer(std::uint64_t id) {
  std::erase_if(death_observers_,
                [id](const DeathObserver& o) { return o.id == id; });
}

std::uint64_t Machine::on_node_crash(std::function<void(NodeId)> fn) {
  const std::uint64_t id = next_observer_id_++;
  crash_observers_.push_back(DeathObserver{id, std::move(fn)});
  return id;
}

void Machine::remove_crash_observer(std::uint64_t id) {
  std::erase_if(crash_observers_,
                [id](const DeathObserver& o) { return o.id == id; });
}

void Machine::do_kill(NodeId n, bool silent) {
  if (n >= cfg_.nodes || node_dead_[n]) return;
  node_dead_[n] = 1;
  ++dead_nodes_count_;
  // Observers first: recovery layers capture in-flight state (which task a
  // manager was running, which requests a server held) while the scheduler's
  // view of the node is still intact.  Index loop: an observer may register
  // further observers but must not unregister others.
  for (std::size_t i = 0; i < death_observers_.size(); ++i)
    death_observers_[i].fn(n);
  // The machine-check broadcast: skipped for a silent kill, so recovery
  // layers stay oblivious until a failure detector or a doomed reference
  // finds the corpse.
  if (!silent)
    for (std::size_t i = 0; i < crash_observers_.size(); ++i)
      crash_observers_[i].fn(n);
  // Now tear down the node's fibers, in spawn order.  Victims are collected
  // as Fiber* and re-validated through the map: one victim's unwind may
  // reap another (a destructor calling abandon()).
  std::vector<Fiber*> victims;
  for (FiberCtl* c = live_head_; c != nullptr; c = c->live_next)
    if (c->node == n) victims.push_back(c->fiber.get());
  for (Fiber* f : victims) {
    FiberCtl* c = ctl(f);
    if (c == nullptr) continue;
    c->killed = true;
    // A fiber with a resume already queued unwinds when that event fires
    // (charge() re-checks killed on wakeup).
    if (c->resume_pending) continue;
    if (f->state() == Fiber::State::kRunnable) {
      // Never ran: nothing on its stack to unwind, drop it outright.
      reap(c);
      continue;
    }
    // Parked: resume it so park() raises FiberKill and the stack unwinds
    // through run_body, running destructors along the way.
    ++fiber_resumes_;
    cur_ctl_ = c;
    f->resume();
    cur_ctl_ = nullptr;
    if (f->finished()) reap(c);
  }
}

bool Machine::cut_between(NodeId a, NodeId b) const {
  const Time now = engine_.now();
  for (const Cut& c : cuts_) {
    if (now < c.start || now >= c.heal) continue;
    const std::int8_t sa = c.side[a];
    const std::int8_t sb = c.side[b];
    // Nodes listed on neither side keep full connectivity to both.
    if (sa != 0 && sb != 0 && sa != sb) return true;
  }
  return false;
}

bool Machine::reachable(NodeId a, NodeId b) const {
  if (a >= cfg_.nodes || b >= cfg_.nodes) return false;
  if (a == b) return true;
  if (has_cuts_ && cut_between(a, b)) return false;
  return fabric_.has_path(a, b);
}

void Machine::check_reach(NodeId req, NodeId home) {
  if (req == home || !cut_between(req, home)) return;
  ++stats_.net_unreachable_refs;
  // The requester pays the PNC's full futile retry budget: issue overhead
  // plus max_drop_retries timeouts into the void.  Giving up is never
  // cheaper than succeeding, so retry loops above stay honestly priced.
  charge(cfg_.issue_overhead_ns +
         static_cast<Time>(faults_.max_drop_retries) * faults_.drop_retry_ns);
  throw NetUnreachableError(req, home, "partition window");
}

std::uint64_t Machine::on_partition_heal(std::function<void(std::size_t)> fn) {
  const std::uint64_t id = next_observer_id_++;
  heal_observers_.push_back(HealObserver{id, std::move(fn)});
  // Heal events are posted lazily on first subscription: a plan whose heal
  // lies past the workload's natural end would otherwise keep every
  // unobserved run alive until the cut closed.
  if (!heal_events_posted_) {
    heal_events_posted_ = true;
    for (std::size_t i = 0; i < cuts_.size(); ++i)
      if (cuts_[i].heal > engine_.now())
        engine_.post_at(cuts_[i].heal, [this, i] { fire_heal(i); });
  }
  return id;
}

void Machine::remove_heal_observer(std::uint64_t id) {
  std::erase_if(heal_observers_,
                [id](const HealObserver& o) { return o.id == id; });
}

void Machine::fire_heal(std::size_t idx) {
  for (std::size_t i = 0; i < heal_observers_.size(); ++i)
    heal_observers_[i].fn(idx);
}

void Machine::check_node(NodeId home) const {
  if (home >= cfg_.nodes) throw SimError("bad node in address");
}

void Machine::check_target(NodeId home) {
  if (!node_dead_[home]) return;
  ++stats_.dead_node_refs;
  // The requester still pays for the failed transaction: issue overhead,
  // the trip out, and the error reply coming back.
  charge(cfg_.issue_overhead_ns + 2 * fabric_.traversal_ns());
  throw NodeDeadError(home);
}

void Machine::maybe_mem_fault(NodeId home) {
  if (faults_.mem_fault_prob <= 0.0) return;
  if (fault_rng_.uniform() >= faults_.mem_fault_prob) return;
  ++stats_.mem_faults_injected;
  throw MemoryFaultError(home);
}

void Machine::abandon(Fiber* f) {
  FiberCtl* c = ctl(f);
  if (c == nullptr) return;  // already finished
  assert(!c->resume_pending && f->state() != Fiber::State::kRunning);
  reap(c);
}

// --- Memory --------------------------------------------------------------

void Machine::ensure_backing(Node& nd, std::size_t end) const {
  if (end > cfg_.memory_per_node) throw SimError("physical address out of range");
  if (nd.mem.size() < end) {
    std::size_t grown = std::max(end, nd.mem.size() * 2);
    nd.mem.resize(std::min(grown, cfg_.memory_per_node), 0);
  }
}

std::uint8_t* Machine::raw(PhysAddr a, std::size_t n) { return raw_mut(a, n); }

std::uint8_t* Machine::raw_mut(PhysAddr a, std::size_t n) {
  if (a.node >= cfg_.nodes) throw SimError("bad node in address");
  Node& nd = node_[a.node];
  ensure_backing(nd, static_cast<std::size_t>(a.offset) + n);
  return nd.mem.data() + a.offset;
}

const std::uint8_t* Machine::raw_const(PhysAddr a, std::size_t n) const {
  if (a.node >= cfg_.nodes) throw SimError("bad node in address");
  Node& nd = node_[a.node];
  ensure_backing(nd, static_cast<std::size_t>(a.offset) + n);
  return nd.mem.data() + a.offset;
}

PhysAddr Machine::alloc(NodeId node, std::size_t bytes, std::size_t align) {
  if (node >= cfg_.nodes) throw SimError("alloc: bad node");
  if (fault_checks_ && node_dead_[node]) throw NodeDeadError(node);
  if (bytes == 0) bytes = 1;
  (void)align;  // everything is 8-aligned
  const auto size = static_cast<std::uint32_t>((bytes + 7) & ~std::size_t{7});
  Node& nd = node_[node];
  // First fit over freed blocks.
  for (std::size_t i = 0; i < nd.free_list.size(); ++i) {
    FreeBlock& fb = nd.free_list[i];
    if (fb.size >= size) {
      PhysAddr a{node, fb.offset};
      fb.offset += size;
      fb.size -= size;
      if (fb.size == 0) nd.free_list.erase(nd.free_list.begin() + i);
      nd.allocated += size;
      return a;
    }
  }
  if (nd.high_water + size > cfg_.memory_per_node)
    throw SimError("alloc: node memory exhausted");
  PhysAddr a{node, nd.high_water};
  nd.high_water += size;
  nd.allocated += size;
  return a;
}

void Machine::free(PhysAddr addr, std::size_t bytes) {
  if (addr.node >= cfg_.nodes) return;
  notify([&](Probe& p) { p.on_free(addr, bytes); });
  const auto size = static_cast<std::uint32_t>((bytes + 7) & ~std::size_t{7});
  Node& nd = node_[addr.node];
  nd.allocated -= std::min<std::size_t>(nd.allocated, size);
  // The free list is kept sorted by offset so adjacent blocks coalesce on
  // insert — alloc/free churn at one size can never grow it without bound.
  // (Offsets never influence timing — only the home *node* does — so the
  // address-ordered first fit this implies is simulation-neutral.)
  auto it = std::lower_bound(
      nd.free_list.begin(), nd.free_list.end(), addr.offset,
      [](const FreeBlock& fb, std::uint32_t off) { return fb.offset < off; });
  if (it != nd.free_list.begin()) {
    auto prev = it - 1;
    if (prev->offset + prev->size == addr.offset) {
      prev->size += size;
      if (it != nd.free_list.end() &&
          prev->offset + prev->size == it->offset) {
        prev->size += it->size;
        nd.free_list.erase(it);
      }
      return;
    }
  }
  if (it != nd.free_list.end() && addr.offset + size == it->offset) {
    it->offset = addr.offset;
    it->size += size;
    return;
  }
  nd.free_list.insert(it, FreeBlock{addr.offset, size});
}

std::size_t Machine::allocated_on(NodeId node) const {
  return node_[node].allocated;
}

Time Machine::reference_finish(NodeId req, NodeId home, std::uint32_t words,
                               Time* queue_ns) {
  const Time t = engine_.now() + cfg_.issue_overhead_ns;
  Time arrive;
  try {
    arrive = fabric_.route(req, home, t, words);
  } catch (const NetUnreachableError& e) {
    // Dead switch card with no detour, or the PNC's drop-retry budget ran
    // out: the requester pays for the issue plus every futile retry, then
    // the error surfaces with no data moved.
    ++stats_.net_unreachable_refs;
    charge(cfg_.issue_overhead_ns + e.wasted());
    throw;
  }
  Node& h = node_[home];
  const Time start = std::max(arrive, h.module_busy_until);
  if (queue_ns) *queue_ns = start - arrive;
  Time service = static_cast<Time>(words) * cfg_.module_service_ns;
  if (has_slow_) {
    const double f = slow_factor(home);
    if (f != 1.0)
      service = static_cast<Time>(static_cast<double>(service) * f);
  }
  h.module_busy_until = start + service;
  Time finish = start + service;
  if (req != home) finish += fabric_.traversal_ns();  // reply path
  return finish;
}

double Machine::slow_factor(NodeId n) const {
  if (!has_slow_) return 1.0;
  const Time now = engine_.now();
  for (const FaultPlan::SlowNode& s : faults_.slow_nodes)
    if (s.node == n && now >= s.from && now < s.until) return s.factor;
  return 1.0;
}

void Machine::reference(PhysAddr a, std::uint32_t words, MemOp op) {
  const NodeId req = current_node();
  check_node(a.node);
  if (fault_checks_) {
    check_target(a.node);
    if (has_cuts_) check_reach(req, a.node);
  }
  Time q = 0;
  const Time finish = reference_finish(req, a.node, words, &q);
  NodeStats& s = stats_.node[req];
  if (req == a.node) {
    ++s.local_refs;
  } else {
    ++s.remote_refs;
    ++stats_.node[a.node].serviced_remote;
  }
  s.queue_ns += q;
  observe_reference(req, a, words, op, q);
  const Time d = finish - engine_.now();
  s.stall_ns += d;
  charge(d);
  if (fault_checks_) maybe_mem_fault(a.node);
}

std::uint32_t Machine::fetch_add_u32(PhysAddr a, std::uint32_t delta) {
  if (combining_)
    combining_fetch_add_reference(a);
  else
    reference(a, 1, MemOp::kAtomic);
  auto* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  const std::uint32_t nv = old + delta;
  std::memcpy(p, &nv, 4);
  return old;
}

void Machine::combining_fetch_add_reference(PhysAddr a) {
  const NodeId req = current_node();
  check_node(a.node);
  if (fault_checks_) {
    check_target(a.node);
    if (has_cuts_) check_reach(req, a.node);
  }
  const std::uint64_t key = chan_of(a);
  NodeStats& s = stats_.node[req];
  Time fin = 0;
  if (req != a.node &&
      fabric_.combine_add(key, engine_.now() + cfg_.issue_overhead_ns,
                          &fin)) {
    // Follower: merged at a switch stage; never touches the home module.
    ++s.remote_refs;
    observe_reference(req, a, 1, MemOp::kAtomic, 0);
    const Time d = fin > engine_.now() ? fin - engine_.now() : 0;
    s.stall_ns += d;
    charge(d);
  } else {
    // Leader (or local): a normal contended reference, opening a combining
    // window that stays live until the reply fans back down.
    Time q = 0;
    const Time finish = reference_finish(req, a.node, 1, &q);
    if (req == a.node) {
      ++s.local_refs;
    } else {
      ++s.remote_refs;
      ++stats_.node[a.node].serviced_remote;
    }
    s.queue_ns += q;
    observe_reference(req, a, 1, MemOp::kAtomic, q);
    if (req != a.node) fabric_.record_add(key, finish);
    const Time d = finish - engine_.now();
    s.stall_ns += d;
    charge(d);
  }
  if (fault_checks_) maybe_mem_fault(a.node);
}

std::uint32_t Machine::fetch_or_u32(PhysAddr a, std::uint32_t bits) {
  reference(a, 1, MemOp::kAtomic);
  auto* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  const std::uint32_t nv = old | bits;
  std::memcpy(p, &nv, 4);
  return old;
}

std::uint32_t Machine::test_and_set(PhysAddr a) {
  reference(a, 1, MemOp::kAtomic);
  auto* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  const std::uint32_t one = 1;
  std::memcpy(p, &one, 4);
  return old;
}

std::uint32_t Machine::swap_u32(PhysAddr a, std::uint32_t v) {
  reference(a, 1, MemOp::kAtomic);
  auto* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  std::memcpy(p, &v, 4);
  return old;
}

std::uint32_t Machine::cas_u32(PhysAddr a, std::uint32_t expect,
                               std::uint32_t desired) {
  reference(a, 1, MemOp::kAtomic);
  auto* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  if (old == expect) std::memcpy(p, &desired, 4);
  return old;
}

void Machine::block_copy(PhysAddr dst, PhysAddr src, std::size_t bytes) {
  if (bytes == 0) return;
  const NodeId req = current_node();
  check_node(src.node);
  check_node(dst.node);
  if (fault_checks_) {
    check_target(src.node);
    check_target(dst.node);
    if (has_cuts_) {
      check_reach(req, src.node);
      check_reach(req, dst.node);
    }
  }
  const std::uint32_t words = word_count(bytes);
  Time q = 0;
  // Head of the transfer pays full reference latency to the source...
  const Time head = reference_finish(req, src.node, 1, &q);
  // ...then words stream at the block rate, occupying both modules.
  const Time stream = static_cast<Time>(words) * cfg_.block_word_ns;
  const Time occupancy =
      static_cast<Time>(words) * cfg_.module_service_ns;
  node_[src.node].module_busy_until =
      std::max(node_[src.node].module_busy_until, head) + occupancy;
  node_[dst.node].module_busy_until =
      std::max(node_[dst.node].module_busy_until, head) + occupancy;

  NodeStats& s = stats_.node[req];
  s.block_words += words;
  s.queue_ns += q;
  if (src.node != req || dst.node != req) ++s.remote_refs;
  else ++s.local_refs;
  observe_reference(req, src, words, MemOp::kRead, q);
  observe_reference(req, dst, words, MemOp::kWrite, 0);

  const Time total = (head - engine_.now()) + stream;
  s.stall_ns += total;
  // Move the bytes at completion time.
  std::vector<std::uint8_t> tmp(bytes);
  charge(total);
  // A parity error voids the whole transfer: time charged, no data moved
  // (same contract as reference(); the PNC reports the block as failed).
  if (fault_checks_) maybe_mem_fault(src.node);
  peek_bytes(tmp.data(), src, bytes);
  poke_bytes(dst, tmp.data(), bytes);
}

void Machine::block_read(void* host_dst, PhysAddr src, std::size_t bytes) {
  if (bytes == 0) return;
  const NodeId req = current_node();
  check_node(src.node);
  if (fault_checks_) {
    check_target(src.node);
    if (has_cuts_) check_reach(req, src.node);
  }
  const std::uint32_t words = word_count(bytes);
  Time q = 0;
  const Time head = reference_finish(req, src.node, 1, &q);
  const Time stream = static_cast<Time>(words) * cfg_.block_word_ns;
  node_[src.node].module_busy_until =
      std::max(node_[src.node].module_busy_until, head) +
      static_cast<Time>(words) * cfg_.module_service_ns;
  NodeStats& s = stats_.node[req];
  s.block_words += words;
  s.queue_ns += q;
  if (src.node != req) ++s.remote_refs;
  else ++s.local_refs;
  observe_reference(req, src, words, MemOp::kRead, q);
  const Time total = (head - engine_.now()) + stream;
  s.stall_ns += total;
  charge(total);
  if (fault_checks_) maybe_mem_fault(src.node);
  peek_bytes(host_dst, src, bytes);
}

void Machine::block_write(PhysAddr dst, const void* host_src,
                          std::size_t bytes) {
  if (bytes == 0) return;
  const NodeId req = current_node();
  check_node(dst.node);
  if (fault_checks_) {
    check_target(dst.node);
    if (has_cuts_) check_reach(req, dst.node);
  }
  const std::uint32_t words = word_count(bytes);
  Time q = 0;
  const Time head = reference_finish(req, dst.node, 1, &q);
  const Time stream = static_cast<Time>(words) * cfg_.block_word_ns;
  node_[dst.node].module_busy_until =
      std::max(node_[dst.node].module_busy_until, head) +
      static_cast<Time>(words) * cfg_.module_service_ns;
  NodeStats& s = stats_.node[req];
  s.block_words += words;
  s.queue_ns += q;
  if (dst.node != req) ++s.remote_refs;
  else ++s.local_refs;
  observe_reference(req, dst, words, MemOp::kWrite, q);
  const Time total = (head - engine_.now()) + stream;
  s.stall_ns += total;
  charge(total);
  if (fault_checks_) maybe_mem_fault(dst.node);
  poke_bytes(dst, host_src, bytes);
}

void Machine::access_words(PhysAddr a, std::uint32_t n, bool write) {
  (void)write;
  if (n == 0) return;
  const NodeId req = current_node();
  check_node(a.node);
  if (fault_checks_) {
    check_target(a.node);
    if (has_cuts_) check_reach(req, a.node);
  }
  // n back-to-back single-word references; the requester is latency-bound,
  // so each starts when the previous completes.  Only the first can queue
  // behind foreign traffic (an approximation that keeps this O(1)).
  Time q = 0;
  const Time first = reference_finish(req, a.node, 1, &q);
  const Time per = first - engine_.now() - q;  // uncontended latency
  node_[a.node].module_busy_until +=
      static_cast<Time>(n - 1) * cfg_.module_service_ns;
  NodeStats& s = stats_.node[req];
  if (req == a.node) s.local_refs += n;
  else {
    s.remote_refs += n;
    stats_.node[a.node].serviced_remote += n;
  }
  s.queue_ns += q;
  // Aggregate traffic: counted for contention lints, never race-checked
  // (these calls model reference volume, not individual data accesses).
  observe_reference(req, a, n, MemOp::kAggregate, q);
  const Time total = q + static_cast<Time>(n) * per;
  s.stall_ns += total;
  charge(total);
}

}  // namespace bfly::sim
