#include "moviola/wait_graph.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

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

Detector::FiberRec& Detector::rec(sim::Fiber* f) {
  const std::uint64_t slot = f->spawn_index();
  if (slot >= fibers_.size()) fibers_.resize(slot + 1);
  FiberRec& r = fibers_[slot];
  r.fiber = f;
  return r;
}

void Detector::on_block(sim::Fiber* f, std::uint64_t chan,
                        sim::WaitKind kind) {
  if (f == nullptr) return;
  FiberRec& r = rec(f);
  if (!r.blocked) ++blocked_count_;
  r.blocked = true;
  r.chan = chan;
  chans_[chan].kind = kind;
  // Blocking-discipline lint: a fiber that blocks in the kernel while
  // holding a spin lock wedges every spinner on that lock until it wakes —
  // and forever, if its wakeup depends on one of those spinners.
  for (const std::uint64_t lock : r.held) {
    lints_.push_back(LintReport{
        LintReport::Kind::kBlockUnderLock, fiber_name(f),
        fiber_name(f) + " blocked on " + chan_name(chan) +
            " while holding spin lock " + chan_name(lock)});
  }
}

void Detector::on_wake(sim::Fiber* f, std::uint64_t chan,
                       sim::WakeReason /*why*/) {
  if (f == nullptr) return;
  FiberRec& r = rec(f);
  if (r.blocked && r.chan == chan) {
    r.blocked = false;
    --blocked_count_;
  }
}

void Detector::on_post(sim::Fiber* f, std::uint64_t chan,
                       sim::PostOutcome out) {
  ChanState& c = chans_[chan];
  if (out == sim::PostOutcome::kOverwrote) ++c.overwrites;
  if (f == nullptr) return;  // engine/host posts carry no wait-for edge
  const std::uint64_t slot = f->spawn_index();
  if (std::find(c.posters.begin(), c.posters.end(), slot) == c.posters.end())
    c.posters.push_back(slot);
}

void Detector::on_spin(sim::Fiber* f, std::uint64_t lock) {
  if (f == nullptr) return;
  FiberRec& r = rec(f);
  if (r.spin_lock != lock) r.spin_streak = 0;
  r.spin_lock = lock;
  ++r.spin_streak;
}

void Detector::on_lock(sim::Fiber* f, std::uint64_t lock, bool held) {
  if (f == nullptr) return;  // spin locks are taken by fibers
  FiberRec& r = rec(f);
  std::erase(r.held, lock);
  if (!held) return;
  r.held.push_back(lock);
  // A successful acquisition ends the probe streak.
  if (r.spin_lock == lock) r.spin_lock = r.spin_streak = 0;
}

void Detector::on_finish(sim::Fiber* f) {
  if (f->spawn_index() >= fibers_.size()) return;
  FiberRec& r = fibers_[f->spawn_index()];
  // A kill-unwind skips the wake hook: a fiber can die blocked.
  if (r.blocked) --blocked_count_;
  r = FiberRec{};  // its locks go with it
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

  // Deterministic order: the stuck fibers sorted by (name, channel), the
  // spinners by name, ties by spawn index.  Work in node-index space (the
  // position in `nodes`) from here on.
  std::vector<std::string> names(fibers_.size());
  std::vector<std::uint64_t> nodes, spinners;  // spawn indices
  for (std::uint64_t s = 0; s < fibers_.size(); ++s) {
    const FiberRec& r = fibers_[s];
    if (r.fiber == nullptr) continue;
    names[s] = fiber_name(r.fiber);
    if (r.blocked) nodes.push_back(s);
    if (r.spin_streak > 0 && r.spin_streak >= spin_streak_threshold_)
      spinners.push_back(s);
  }
  std::sort(nodes.begin(), nodes.end(), [&](std::uint64_t a, std::uint64_t b) {
    return std::tie(names[a], fibers_[a].chan, a) <
           std::tie(names[b], fibers_[b].chan, b);
  });
  std::sort(spinners.begin(), spinners.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return std::tie(names[a], a) < std::tie(names[b], b);
            });
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(fibers_.size(), kUnvisited);
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i]] = i;

  // Wait-for edges: a blocked waiter waits for every *stuck* fiber in the
  // poster history of its channel.  A live (running or runnable) poster
  // can still satisfy the wait, and a finished one is in no knot: no edge.
  const std::size_t n = nodes.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = chans_.find(fibers_[nodes[i]].chan);
    if (it == chans_.end()) continue;
    for (const std::uint64_t p : it->second.posters)
      if (p != nodes[i] && p < index.size() && index[p] != kUnvisited)
        adj[i].push_back(index[p]);
  }

  // Tarjan SCC, iterative (fixture graphs are tiny, but the explorer can
  // park hundreds of app fibers at once).
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
  std::vector<std::vector<std::size_t>> sccs(next_comp);  // members ascending
  for (std::size_t i = 0; i < n; ++i) sccs[comp[i]].push_back(i);

  auto make_report = [&](StuckKind kind,
                         const std::vector<std::size_t>& members) {
    StuckReport r;
    r.kind = kind;
    std::ostringstream os;
    os << to_string(kind) << ":";
    for (const std::size_t i : members) {
      const FiberRec& w = fibers_[nodes[i]];
      r.members.push_back(names[nodes[i]]);
      r.channels.push_back(w.chan);
      r.processes.push_back(kernel_ ? kernel_->process_of(w.fiber) : 0);
      os << " " << names[nodes[i]] << " waits " << chan_name(w.chan) << ";";
    }
    r.detail = os.str();
    findings_.push_back(std::move(r));
  };

  for (const auto& scc : sccs)
    if (scc.size() > 1) make_report(StuckKind::kDeadlock, scc);

  // Acyclic stuck fibers: lost wakeup when the channel's history shows an
  // overwrite (the wakeup existed and was destroyed), orphan wait
  // otherwise.
  for (std::size_t i = 0; i < n; ++i) {
    if (sccs[comp[i]].size() > 1) continue;
    auto it = chans_.find(fibers_[nodes[i]].chan);
    const bool lost = it != chans_.end() && it->second.overwrites > 0;
    make_report(lost ? StuckKind::kLostWakeup : StuckKind::kOrphanWait, {i});
  }

  // Starving spinners: runnable, so never blocked — report any probe
  // streak that reached the threshold, with the fiber holding the lock.
  for (const std::uint64_t s : spinners) {
    const FiberRec& f = fibers_[s];
    StuckReport r;
    r.kind = StuckKind::kStarvation;
    r.members.push_back(names[s]);
    r.channels.push_back(f.spin_lock);
    r.processes.push_back(kernel_ ? kernel_->process_of(f.fiber) : 0);
    std::ostringstream os;
    os << "starvation: " << names[s] << " spun " << f.spin_streak
       << " probes on " << chan_name(f.spin_lock);
    for (std::uint64_t h = 0; h < fibers_.size(); ++h) {
      const std::vector<std::uint64_t>& held = fibers_[h].held;
      if (std::find(held.begin(), held.end(), f.spin_lock) != held.end())
        os << " held by " << names[h];
    }
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
  if (m_.quiescent() && blocked_count_ == m_.live_fibers() &&
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
