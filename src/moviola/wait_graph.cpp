#include "moviola/wait_graph.hpp"

#include <algorithm>
#include <sstream>

#include "chrysalis/kernel.hpp"
#include "sim/fiber.hpp"

namespace bfly::moviola {

const char* to_string(StuckKind k) {
  switch (k) {
    case StuckKind::kDeadlock:
      return "deadlock";
    case StuckKind::kLostWakeup:
      return "lost-wakeup";
    case StuckKind::kStarvation:
      return "starvation";
    case StuckKind::kOrphanWait:
      return "orphan-wait";
  }
  return "?";
}

Detector::Detector(sim::Machine& m, chrys::Kernel* kernel)
    : m_(m), kernel_(kernel) {
  m_.attach(this);
}

Detector::~Detector() { m_.detach(this); }

void Detector::on_block(sim::Fiber* f, std::uint64_t chan,
                        sim::WaitKind kind) {
  if (f == nullptr) return;
  blocked_[f] = WaitState{chan, kind};
  chans_[chan].kind = kind;
  // Blocking-discipline lint: a fiber that blocks in the kernel while
  // holding a spin lock wedges every spinner on that lock until it wakes —
  // and forever, if its wakeup depends on one of those spinners.
  if (auto it = held_.find(f); it != held_.end() && !it->second.empty()) {
    for (const std::uint64_t lock : it->second) {
      lints_.push_back(LintReport{
          LintReport::Kind::kBlockUnderLock, fiber_name(f),
          fiber_name(f) + " blocked on " + chan_name(chan) +
              " while holding spin lock " + chan_name(lock)});
    }
  }
}

void Detector::on_wake(sim::Fiber* f, std::uint64_t chan,
                       sim::WakeReason /*why*/) {
  if (f == nullptr) return;
  auto it = blocked_.find(f);
  if (it != blocked_.end() && it->second.chan == chan) blocked_.erase(it);
}

void Detector::on_post(sim::Fiber* f, std::uint64_t chan,
                       sim::PostOutcome out) {
  ChanState& c = chans_[chan];
  if (out == sim::PostOutcome::kOverwrote) ++c.overwrites;
  if (f == nullptr) return;  // engine/host posts carry no wait-for edge
  if (std::find(c.posters.begin(), c.posters.end(), f) == c.posters.end())
    c.posters.push_back(f);
}

void Detector::on_spin(sim::Fiber* f, std::uint64_t lock) {
  if (f == nullptr) return;
  SpinState& s = spin_[f];
  if (s.lock != lock) s = SpinState{lock, 0};
  ++s.streak;
}

void Detector::on_lock(sim::Fiber* f, std::uint64_t lock, bool held) {
  if (held) {
    lock_holder_[lock] = f;
    if (f != nullptr) {
      held_[f].insert(lock);
      // A successful acquisition ends the probe streak.
      if (auto it = spin_.find(f); it != spin_.end() && it->second.lock == lock)
        spin_.erase(it);
    }
  } else {
    if (auto it = lock_holder_.find(lock); it != lock_holder_.end())
      lock_holder_.erase(it);
    if (f != nullptr) {
      if (auto it = held_.find(f); it != held_.end()) it->second.erase(lock);
    }
  }
}

std::string Detector::fiber_name(sim::Fiber* f) const {
  if (f == nullptr) return "<host>";
  if (!f->name().empty()) return f->name();
  return "fiber#" + std::to_string(f->spawn_index());
}

std::string Detector::chan_name(std::uint64_t chan) const {
  std::ostringstream os;
  const std::uint64_t space = chan >> 62;
  if (space == 1) {  // chan_of_oid
    const auto oid = static_cast<std::uint32_t>(chan & 0xffffffffu);
    auto it = chans_.find(chan);
    const bool dq =
        it != chans_.end() && it->second.kind == sim::WaitKind::kDualQueue;
    os << (dq ? "dq#" : "event#") << oid;
  } else if (space == 2) {  // chan_of_stream
    os << "stream#" << static_cast<std::uint32_t>(chan & 0xffffffffu);
  } else {  // chan_of(PhysAddr)
    os << "lock@node" << static_cast<std::uint32_t>(chan >> 32) << "+0x"
       << std::hex << static_cast<std::uint32_t>(chan & 0xffffffffu);
  }
  return os.str();
}

std::uint64_t Detector::overwrites(std::uint64_t chan) const {
  auto it = chans_.find(chan);
  return it == chans_.end() ? 0 : it->second.overwrites;
}

void Detector::append_charged_hook_lint() {
  if (charged_hook_reported_ || m_.hook_charges() == 0) return;
  charged_hook_reported_ = true;
  std::ostringstream os;
  os << "probe hooks charged simulated time " << m_.hook_charges()
     << " time(s): instrumented runs are no longer event-identical to bare "
        "runs";
  lints_.push_back(
      LintReport{LintReport::Kind::kChargedHook, "<probe>", os.str()});
}

std::vector<StuckReport> Detector::analyze() {
  findings_.clear();
  append_charged_hook_lint();

  // Kill-unwinds skip the wake hooks (the fiber dies inside block_self),
  // so entries can outlive their fibers.  Prune the dead before touching
  // any Fiber*.
  std::erase_if(blocked_, [&](const auto& e) { return !m_.fiber_live(e.first); });
  std::erase_if(spin_, [&](const auto& e) { return !m_.fiber_live(e.first); });
  std::erase_if(held_, [&](const auto& e) { return !m_.fiber_live(e.first); });
  std::erase_if(lock_holder_, [&](const auto& e) {
    return e.second != nullptr && !m_.fiber_live(e.second);
  });

  // Deterministic node order: unordered_map iteration depends on pointer
  // hashing, so sort the stuck fibers by (name, channel) first and work in
  // index space from here on.
  std::vector<sim::Fiber*> nodes;
  nodes.reserve(blocked_.size());
  for (const auto& [f, w] : blocked_) nodes.push_back(f);
  std::sort(nodes.begin(), nodes.end(), [&](sim::Fiber* a, sim::Fiber* b) {
    const std::string an = fiber_name(a), bn = fiber_name(b);
    if (an != bn) return an < bn;
    return blocked_.at(a).chan < blocked_.at(b).chan;
  });
  std::unordered_map<sim::Fiber*, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i]] = i;

  // Wait-for edges: a blocked waiter waits for every *stuck* fiber in the
  // poster history of its channel.  A live (running or runnable) poster
  // means the wait can still be satisfied — no edge, no knot.
  const std::size_t n = nodes.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WaitState& w = blocked_.at(nodes[i]);
    auto it = chans_.find(w.chan);
    if (it == chans_.end()) continue;
    for (sim::Fiber* p : it->second.posters) {
      if (p == nodes[i]) continue;
      if (auto pi = index.find(p); pi != index.end())
        adj[i].push_back(pi->second);
    }
  }

  // Tarjan SCC, iterative (fixture graphs are tiny, but the explorer can
  // park hundreds of app fibers at once).
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> idx(n, kUnvisited), low(n, 0), comp(n, kUnvisited);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0, next_comp = 0;
  struct Frame {
    std::size_t v, edge;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (idx[root] != kUnvisited) continue;
    std::vector<Frame> frames{{root, 0}};
    idx[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.edge < adj[fr.v].size()) {
        const std::size_t w = adj[fr.v][fr.edge++];
        if (idx[w] == kUnvisited) {
          idx[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          low[fr.v] = std::min(low[fr.v], idx[w]);
        }
      } else {
        if (low[fr.v] == idx[fr.v]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            if (w == fr.v) break;
          }
          ++next_comp;
        }
        const std::size_t v = fr.v;
        frames.pop_back();
        if (!frames.empty())
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
    }
  }

  // An SCC of size > 1 is a wait-for cycle.  (Size-1 components cannot
  // self-loop: a fiber's own posts are excluded from its edges.)
  std::vector<std::vector<std::size_t>> sccs(next_comp);
  for (std::size_t i = 0; i < n; ++i) sccs[comp[i]].push_back(i);
  std::vector<bool> in_cycle(n, false);

  auto make_report = [&](StuckKind kind,
                         const std::vector<std::size_t>& members) {
    StuckReport r;
    r.kind = kind;
    std::ostringstream os;
    os << to_string(kind) << ":";
    for (const std::size_t i : members) {
      sim::Fiber* f = nodes[i];
      const WaitState& w = blocked_.at(f);
      r.members.push_back(fiber_name(f));
      r.channels.push_back(w.chan);
      r.processes.push_back(kernel_ ? kernel_->process_of(f) : 0);
      os << " " << fiber_name(f) << " waits " << chan_name(w.chan) << ";";
    }
    r.detail = os.str();
    findings_.push_back(std::move(r));
  };

  for (auto& scc : sccs) {
    if (scc.size() < 2) continue;
    std::sort(scc.begin(), scc.end());  // Tarjan emits reverse topological
    for (const std::size_t i : scc) in_cycle[i] = true;
    make_report(StuckKind::kDeadlock, scc);
  }

  // Acyclic stuck fibers: lost wakeup when the channel's history shows an
  // overwrite (the wakeup existed and was destroyed), orphan wait
  // otherwise.
  for (std::size_t i = 0; i < n; ++i) {
    if (in_cycle[i]) continue;
    const WaitState& w = blocked_.at(nodes[i]);
    auto it = chans_.find(w.chan);
    const bool lost = it != chans_.end() && it->second.overwrites > 0;
    make_report(lost ? StuckKind::kLostWakeup : StuckKind::kOrphanWait, {i});
  }

  // Starving spinners: runnable, so never in blocked_ — report any probe
  // streak that reached the threshold, with the current holder if known.
  std::vector<sim::Fiber*> spinners;
  for (const auto& [f, s] : spin_)
    if (s.streak >= spin_streak_threshold_) spinners.push_back(f);
  std::sort(spinners.begin(), spinners.end(),
            [&](sim::Fiber* a, sim::Fiber* b) {
              return fiber_name(a) < fiber_name(b);
            });
  for (sim::Fiber* f : spinners) {
    const SpinState& s = spin_.at(f);
    StuckReport r;
    r.kind = StuckKind::kStarvation;
    r.members.push_back(fiber_name(f));
    r.channels.push_back(s.lock);
    r.processes.push_back(kernel_ ? kernel_->process_of(f) : 0);
    std::ostringstream os;
    os << "starvation: " << fiber_name(f) << " spun " << s.streak
       << " probes on " << chan_name(s.lock);
    if (auto h = lock_holder_.find(s.lock); h != lock_holder_.end())
      os << " held by " << fiber_name(h->second);
    r.detail = os.str();
    findings_.push_back(std::move(r));
  }

  return findings_;
}

std::string Detector::report() const {
  std::ostringstream os;
  os << "moviola: " << findings_.size() << " finding(s), " << lints_.size()
     << " lint(s)\n";
  for (const auto& f : findings_) os << "  " << f.detail << "\n";
  for (const auto& l : lints_) os << "  lint: " << l.detail << "\n";
  return os.str();
}

void Detector::arm_watchdog(sim::Time period) {
  watchdog_period_ = period;
  last_resumes_ = m_.host_perf().fiber_resumes;
  m_.engine().post_in(period, [this] { watchdog_tick(); });
}

void Detector::watchdog_tick() {
  if (fired_ || m_.live_fibers() == 0) return;  // drained or done: disarm
  const std::uint64_t resumes = m_.host_perf().fiber_resumes;
  if (m_.quiescent() && blocked_.size() == m_.live_fibers() &&
      resumes == last_resumes_) {
    // A full period elapsed with live fibers, no scheduled resumes, and no
    // fiber having run: the heap is down to timers that are not making
    // progress.  Capture the analysis and disarm so the heap can drain.
    fired_ = true;
    analyze();
    return;
  }
  last_resumes_ = resumes;
  m_.engine().post_in(watchdog_period_, [this] { watchdog_tick(); });
}

}  // namespace bfly::moviola
