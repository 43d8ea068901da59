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
      node_dead_(cfg.nodes, 0),
      crash_broadcast_(cfg.nodes, 0) {
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
                                       std::move(name), fibers_spawned_++);
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
  notify([&](Probe& p) { p.on_finish(c->fiber.get()); });
  fibers_.erase(c->fiber.get());  // destroys c and frees the stack
}

void Machine::fiber_event(void* machine, void* payload) {
  // A FiberCtl with a pending resume is never reaped (do_kill defers to the
  // pending event, abandon() forbids it), so `c` is always alive here.
  auto* c = static_cast<FiberCtl*>(payload);
  assert(c->resume_pending);
  c->resume_pending = false;
  static_cast<Machine*>(machine)->do_resume(c);
}

void Machine::do_resume(FiberCtl* c) {
  ++fiber_resumes_;
  cur_ctl_ = c;
  c->fiber->resume();
  // `c` may have handed off (and may since have been abandoned, so do not
  // touch it): the fiber that switched back to the engine is cur_ctl_.
  FiberCtl* last = cur_ctl_;
  cur_ctl_ = nullptr;
  if (last->fiber->finished()) reap(last);
}

void Machine::hand_off(FiberCtl* c, void* next) {
  if (next == nullptr) {
    Fiber::yield_to_engine();
    return;
  }
  auto* n = static_cast<FiberCtl*>(next);
  assert(n->resume_pending);
  n->resume_pending = false;
  ++fiber_resumes_;
  if (n == c) return;  // our own resume is next: no one runs in between
  cur_ctl_ = n;
  Fiber::switch_to(n->fiber.get());
}

void Machine::schedule_resume(FiberCtl* c, Time at) {
  assert(!c->resume_pending);
  c->resume_pending = true;
  engine_.post_fiber_at(at, c);
}

Time Machine::run() { return engine_.run(); }

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
  // earlier than every pending event, the slow path provably dispatches
  // that resume next and keeps this fiber running — strictly earlier beats
  // every pending time (a tie would lose on sequence number, hence
  // "strictly") and no other fiber, fault, or probe-visible action can run
  // in between.  So warp the clock and keep going: no heap traffic.
  // Disabled whenever anything could legitimately interleave or watch:
  // pending kills/faults (fault_checks_), a requested engine stop, or any
  // attached probe (instrumented runs deliberately ride the battle-tested
  // slow path; the uncharged harnesses then cross-check the two).  The
  // skipped post also never burns an engine sequence number, which is
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
  // Post our resume and dispatch the next event in one sift: when it is a
  // fiber resume (ours included), hand off to it directly.
  assert(!c->resume_pending);
  c->resume_pending = true;
  hand_off(c, engine_.post_fiber_and_take(at, c));
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
  if (fault_checks_ && c->killed) {
    check_kill(c);
    return;  // in-flight exception: complete instantly, do not yield
  }
  // A timer fired in place by take_fiber may wake this very fiber, which is
  // still kRunning on its own stack: `parking` lets wakeup() schedule it, as
  // it would had the fiber yielded to run() first.
  c->parking = true;
  void* next = engine_.take_fiber();
  c->parking = false;
  hand_off(c, next);
  if (fault_checks_) check_kill(c);
}

void Machine::wakeup(Fiber* f, Time delay) {
  FiberCtl* c = ctl(f);
  if (c == nullptr) return;  // already finished
  if (c->killed) return;     // doomed; it unwinds through its own path
  if (c->resume_pending ||
      (f->state() == Fiber::State::kRunning && !c->parking)) {
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

void Machine::do_kill(NodeId n, bool silent) {
  if (n >= cfg_.nodes || node_dead_[n]) return;
  node_dead_[n] = 1;
  ++dead_nodes_count_;
  // Observers first: recovery layers capture in-flight state (which task a
  // manager was running, which requests a server held) while the scheduler's
  // view of the node is still intact.
  death_observers_.fire(n);
  // The machine-check broadcast: skipped for a silent kill, so recovery
  // layers stay oblivious until a failure detector broadcasts its verdict
  // or a doomed reference finds the corpse.
  if (!silent) broadcast_crash(n);
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
    do_resume(c);
  }
}

void Machine::broadcast_crash(NodeId n) {
  if (n >= cfg_.nodes || !node_dead_[n] || crash_broadcast_[n]) return;
  crash_broadcast_[n] = 1;
  crash_observers_.fire(n);
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

std::uint8_t* Machine::raw(PhysAddr a, std::size_t n) const {
  if (a.node >= cfg_.nodes) throw SimError("bad node in address");
  Node& nd = node_[a.node];
  ensure_backing(nd, static_cast<std::size_t>(a.offset) + n);
  return nd.mem.data() + a.offset;
}

PhysAddr Machine::alloc(NodeId node, std::size_t bytes) {
  if (node >= cfg_.nodes) throw SimError("alloc: bad node");
  if (fault_checks_ && node_dead_[node]) throw NodeDeadError(node);
  if (bytes == 0) bytes = 1;
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

double Machine::slow_factor(NodeId n) const {
  if (!has_slow_) return 1.0;
  const Time now = engine_.now();
  for (const FaultPlan::SlowNode& s : faults_.slow_nodes)
    if (s.node == n && now >= s.from && now < s.until) return s.factor;
  return 1.0;
}

// --- Timed memory ----------------------------------------------------------
//
// Every timed operation is one PNC transaction (paper §2.1), local or
// remote: enter() checks its homes, the operation's shape times it, and
// complete() counts it, reports it to the probes, charges the requester and
// rolls the memory fault.  The shapes are one reference (reads, writes and
// atomics, with combining fetch-add as a branch), a block transfer (a head
// reference plus a stream) and access_words' back-to-back run.  enter()
// and complete() are forced inline: as calls they cost the single reference,
// the simulator's hottest path, about a quarter of its host time.

[[gnu::always_inline]] inline Machine::Access Machine::enter(
    PhysAddr home, std::uint32_t words, MemOp op, const PhysAddr* copy_to) {
  const Access x{current_node(), home, words, op, copy_to};
  // Address validation happens before the timing model touches per-node
  // state: a wild node id must raise SimError, not index off node_[].
  const NodeId homes[2] = {home.node, copy_to ? copy_to->node : home.node};
  for (NodeId h : homes)
    if (h >= cfg_.nodes) throw SimError("bad node in address");
  if (fault_checks_) {
    for (NodeId h : homes) check_target(h);
    if (has_cuts_)
      for (NodeId h : homes) check_reach(x.req, h);
  }
  return x;
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
  *queue_ns = start - arrive;
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

[[gnu::always_inline]] inline void Machine::complete(const Access& x,
                                                    Time queue, Time stall,
                                                    bool serviced) {
  const NodeId a = x.home.node;
  const NodeId b = x.copy_to ? x.copy_to->node : a;
  // access_words is `words` references; every other shape is one.
  const std::uint32_t refs = x.op == MemOp::kAggregate ? x.words : 1;
  NodeStats& s = stats_.node[x.req];
  if (a == x.req && b == x.req) {
    s.local_refs += refs;
  } else {
    s.remote_refs += refs;
  }
  if (serviced) {
    if (a != x.req) stats_.node[a].serviced_remote += refs;
    if (b != x.req && b != a) stats_.node[b].serviced_remote += refs;
  }
  s.queue_ns += queue;
  observe_reference(x.req, x.home, x.words, x.op, queue);
  if (x.copy_to)
    observe_reference(x.req, *x.copy_to, x.words, MemOp::kWrite, 0);
  s.stall_ns += stall;
  charge(stall);
  // A parity error voids the transaction after its time is charged: no
  // data moves.  Aggregate traffic models volume and moves none, so it
  // never faults.
  if (fault_checks_ && x.op != MemOp::kAggregate) maybe_mem_fault(a);
}

void Machine::reference(PhysAddr a, std::uint32_t words, MemOp op,
                        bool combine) {
  const Access x = enter(a, words, op);
  const Time now = engine_.now();
  // A fetch_add that meets an in-flight add's window at a switch stage
  // merges into it and never reaches the home module.
  const bool combinable = combine && x.req != a.node;
  Time fin = 0;
  if (combinable &&
      fabric_.combine_add(chan_of(a), now + cfg_.issue_overhead_ns, &fin)) {
    complete(x, 0, fin > now ? fin - now : 0, /*serviced=*/false);
    return;
  }
  Time q = 0;
  const Time finish = reference_finish(x.req, a.node, words, &q);
  // A leader opens a combining window that stays live until the reply fans
  // back down.
  if (combinable) fabric_.record_add(chan_of(a), finish);
  complete(x, q, finish - now);
}

template <typename Modify>
std::uint32_t Machine::read_modify_write(PhysAddr a, Modify modify,
                                         bool combine) {
  reference(a, 1, MemOp::kAtomic, combine);
  std::uint8_t* p = raw(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  const std::uint32_t nv = modify(old);
  std::memcpy(p, &nv, 4);
  return old;
}

std::uint32_t Machine::fetch_add_u32(PhysAddr a, std::uint32_t delta) {
  return read_modify_write(
      a, [delta](std::uint32_t old) { return old + delta; }, combining_);
}

std::uint32_t Machine::fetch_or_u32(PhysAddr a, std::uint32_t bits) {
  return read_modify_write(a, [bits](std::uint32_t old) { return old | bits; });
}

std::uint32_t Machine::test_and_set(PhysAddr a) {
  return read_modify_write(a, [](std::uint32_t) { return 1u; });
}

std::uint32_t Machine::swap_u32(PhysAddr a, std::uint32_t v) {
  return read_modify_write(a, [v](std::uint32_t) { return v; });
}

std::uint32_t Machine::cas_u32(PhysAddr a, std::uint32_t expect,
                               std::uint32_t desired) {
  return read_modify_write(a, [expect, desired](std::uint32_t old) {
    return old == expect ? desired : old;
  });
}

void Machine::block_transfer(PhysAddr head, MemOp op, std::size_t bytes,
                             const PhysAddr* copy_to) {
  const std::uint32_t words = word_count(bytes);
  const Access x = enter(head, words, op, copy_to);
  // The head pays full reference latency; the words then stream at the
  // block rate, occupying every module the transfer touches.
  Time q = 0;
  const Time start = reference_finish(x.req, head.node, 1, &q);
  const Time occupancy = static_cast<Time>(words) * cfg_.module_service_ns;
  auto occupy = [&](NodeId n) {
    Time& busy = node_[n].module_busy_until;
    busy = std::max(busy, start) + occupancy;
  };
  occupy(head.node);
  if (copy_to) occupy(copy_to->node);
  stats_.node[x.req].block_words += words;
  complete(x, q,
           (start - engine_.now()) +
               static_cast<Time>(words) * cfg_.block_word_ns);
}

void Machine::block_copy(PhysAddr dst, PhysAddr src, std::size_t bytes) {
  if (bytes == 0) return;
  block_transfer(src, MemOp::kRead, bytes, &dst);
  std::vector<std::uint8_t> tmp(bytes);
  peek_bytes(tmp.data(), src, bytes);
  poke_bytes(dst, tmp.data(), bytes);
}

void Machine::block_read(void* host_dst, PhysAddr src, std::size_t bytes) {
  if (bytes == 0) return;
  block_transfer(src, MemOp::kRead, bytes, nullptr);
  peek_bytes(host_dst, src, bytes);
}

void Machine::block_write(PhysAddr dst, const void* host_src,
                          std::size_t bytes) {
  if (bytes == 0) return;
  block_transfer(dst, MemOp::kWrite, bytes, nullptr);
  poke_bytes(dst, host_src, bytes);
}

void Machine::access_words(PhysAddr a, std::uint32_t n) {
  if (n == 0) return;
  // Aggregate traffic: counted for contention lints, never race-checked
  // (these calls model reference volume, not individual data accesses).
  const Access x = enter(a, n, MemOp::kAggregate);
  // n back-to-back single-word references; the requester is latency-bound,
  // so each starts when the previous completes.  Only the first can queue
  // behind foreign traffic (an approximation that keeps this O(1)).
  Time q = 0;
  const Time first = reference_finish(x.req, a.node, 1, &q);
  const Time per = first - engine_.now() - q;  // uncontended latency
  node_[a.node].module_busy_until +=
      static_cast<Time>(n - 1) * cfg_.module_service_ns;
  complete(x, q, q + static_cast<Time>(n) * per);
}

}  // namespace bfly::sim
