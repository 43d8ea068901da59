#include "analyze/analyze.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace bfly::analyze {

namespace {

const char* op_name(sim::MemOp op) {
  switch (op) {
    case sim::MemOp::kRead: return "read";
    case sim::MemOp::kWrite: return "write";
    case sim::MemOp::kAtomic: return "atomic";
    case sim::MemOp::kAggregate: return "aggregate";
  }
  return "?";
}

}  // namespace

Analyzer::Analyzer(sim::Machine& m) : Analyzer(m, Options()) {}

Analyzer::Analyzer(sim::Machine& m, Options opt) : m_(m), opt_(opt) {
  m_.attach(this);
}

Analyzer::~Analyzer() { m_.detach(this); }

void Analyzer::join(Clock& into, const Clock& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

std::uint32_t Analyzer::actor_of(sim::Fiber* f) {
  auto it = actor_ids_.find(f);
  if (it == actor_ids_.end()) {
    // First sighting of a fiber spawned before we attached: no fork edge
    // is available, so it starts with an empty (all-zero) clock.
    const auto id = static_cast<std::uint32_t>(actors_.size());
    Actor a;
    a.fiber = f;
    a.name = f->name();
    a.clock.assign(id + 1, 0);
    a.clock[id] = 1;
    actors_.push_back(std::move(a));
    actor_ids_.emplace(f, id);
    return id;
  }
  Actor& a = actors_[it->second];
  // Runtimes often name a fiber after spawning it; pick the name up lazily.
  if (a.name != f->name() && !f->name().empty()) a.name = f->name();
  return it->second;
}

void Analyzer::on_spawn(sim::Fiber* parent, sim::Fiber* child) {
  // Resolve the parent first: actor_of may mint an actor, which must not
  // collide with the id we hand the child below.
  const std::uint32_t pid = parent != nullptr ? actor_of(parent) : kNoActor;
  // Always mint a fresh actor: the host may reuse a dead fiber's address.
  const auto id = static_cast<std::uint32_t>(actors_.size());
  Actor a;
  a.fiber = child;
  a.name = child->name();
  a.clock.assign(id + 1, 0);
  if (pid != kNoActor) {
    join(a.clock, actors_[pid].clock);  // fork edge: child sees parent
    Actor& p = actors_[pid];
    ++p.clock[pid];  // parent's later work is a new epoch
  }
  a.clock[id] = 1;
  actors_.push_back(std::move(a));
  actor_ids_[child] = id;
}

void Analyzer::on_free(sim::PhysAddr a, std::size_t bytes) {
  // The allocator will hand this range to unrelated code; stale epochs
  // (and stale labels) must not carry over.
  const std::uint32_t first = a.offset / 4;
  const auto last =
      static_cast<std::uint32_t>((a.offset + bytes + 3) / 4);  // exclusive
  for (std::uint32_t w = first; w < last; ++w)
    shadow_.erase(word_key(a.node, w));
  const std::uint64_t lo = word_key(a.node, a.offset);
  const std::uint64_t hi =
      word_key(a.node, static_cast<std::uint32_t>(a.offset + bytes));
  for (auto it = labels_.lower_bound(lo); it != labels_.end() &&
                                          it->first < hi;)
    it = labels_.erase(it);
}

void Analyzer::on_release(sim::Fiber* f, std::uint64_t chan) {
  if (f == nullptr) return;  // host context has no clock to publish
  const std::uint32_t a = actor_of(f);
  Actor& ac = actors_[a];
  join(channels_[chan], ac.clock);
  ++ac.clock[a];  // work after the release is a new epoch
}

void Analyzer::on_acquire(sim::Fiber* f, std::uint64_t chan) {
  if (f == nullptr) return;
  const std::uint32_t a = actor_of(f);
  auto it = channels_.find(chan);
  if (it != channels_.end()) join(actors_[a].clock, it->second);
}

void Analyzer::sync_word_access(std::uint32_t actor, std::uint64_t chan) {
  // The home module serializes word references, so every access to a
  // synchronization cell is totally ordered: model it as acquire + release
  // on the word's channel.
  Actor& ac = actors_[actor];
  Clock& ch = channels_[chan];
  join(ac.clock, ch);
  join(ch, ac.clock);
  ++ac.clock[actor];
}

void Analyzer::on_reference(sim::Fiber* f, sim::NodeId requester,
                            sim::PhysAddr a, std::uint32_t words,
                            sim::MemOp op, sim::Time /*queue_ns*/,
                            sim::Time /*at*/) {
  const std::uint32_t actor =
      f != nullptr ? actor_of(f) : kNoActor;
  const bool remote = requester != a.node;
  const std::uint32_t first = a.offset / 4;
  for (std::uint32_t i = 0; i < words; ++i) {
    const sim::PhysAddr wa{a.node, (first + i) * 4};
    Shadow& s = shadow_[word_key(a.node, first + i)];
    if (remote)
      ++s.remote_words;
    else
      ++s.local_words;
    if (op == sim::MemOp::kAggregate) continue;  // volume, not an access
    if (actor == kNoActor) continue;             // untracked host context
    if (op == sim::MemOp::kAtomic) {
      s.sync = true;
      sync_word_access(actor, sim::chan_of(wa));
      continue;
    }
    if (s.sync) {
      // Plain access to a synchronization cell (spin-lock release store,
      // monitor unlock): ordered by the module, never a race.
      sync_word_access(actor, sim::chan_of(wa));
      continue;
    }
    check_word(actor, wa, s, op);
  }
}

void Analyzer::check_word(std::uint32_t actor, sim::PhysAddr word_addr,
                          Shadow& s, sim::MemOp op) {
  Actor& ac = actors_[actor];
  const sim::Time now = m_.now();

  if (!s.reported) {
    // Against the last write.
    if (s.wactor != kNoActor && s.wactor != actor &&
        s.wclk > component(ac.clock, s.wactor)) {
      record_race(actor, word_addr, s, op, s.wactor, s.wclk, s.wat,
                  sim::MemOp::kWrite);
    }
    // A write also races with any unordered read.
    if (!s.reported && op == sim::MemOp::kWrite) {
      for (const ReadEpoch& r : s.reads) {
        if (r.actor != actor && r.clk > component(ac.clock, r.actor)) {
          record_race(actor, word_addr, s, op, r.actor, r.clk, r.at,
                      sim::MemOp::kRead);
          break;
        }
      }
    }
  }

  const std::uint64_t myclk = component(ac.clock, actor);
  if (op == sim::MemOp::kRead) {
    for (ReadEpoch& r : s.reads) {
      if (r.actor == actor) {
        r.clk = myclk;
        r.at = now;
        return;
      }
    }
    s.reads.push_back(ReadEpoch{actor, myclk, now});
  } else {
    s.wactor = actor;
    s.wclk = myclk;
    s.wat = now;
    s.reads.clear();
  }
}

void Analyzer::record_race(std::uint32_t actor, sim::PhysAddr word_addr,
                           Shadow& s, sim::MemOp op, std::uint32_t prior,
                           std::uint64_t prior_clk, sim::Time prior_at,
                           sim::MemOp prior_op) {
  s.reported = true;  // one report per word, suppressed or not
  const std::string object = symbolize(word_addr);
  if (suppressed(object)) return;
  ++races_total_;
  if (races_.size() >= opt_.max_races) return;
  RaceReport r;
  r.addr = word_addr;
  r.object = object;
  r.prior_actor = actors_[prior].name.empty()
                      ? "actor#" + std::to_string(prior)
                      : actors_[prior].name;
  r.prior_op = prior_op;
  r.prior_at = prior_at;
  r.prior_clock = prior_clk;
  r.actor = actors_[actor].name.empty() ? "actor#" + std::to_string(actor)
                                        : actors_[actor].name;
  r.op = op;
  r.at = m_.now();
  r.seen_of_prior = component(actors_[actor].clock, prior);
  races_.push_back(std::move(r));
}

bool Analyzer::suppressed(const std::string& object) const {
  for (const std::string& s : suppressions_)
    if (object.find(s) != std::string::npos) return true;
  return false;
}

// --- Lock-order lint ---------------------------------------------------------

void Analyzer::on_lock(sim::Fiber* f, std::uint64_t lock, bool held) {
  if (f == nullptr) return;
  Actor& ac = actors_[actor_of(f)];
  if (!held) {
    auto it = std::find(ac.held_locks.rbegin(), ac.held_locks.rend(), lock);
    if (it != ac.held_locks.rend()) ac.held_locks.erase(std::next(it).base());
    return;
  }
  for (const std::uint64_t prior : ac.held_locks) {
    if (prior == lock) continue;
    auto& out = lock_edges_[prior];
    if (std::find(out.begin(), out.end(), lock) == out.end())
      out.push_back(lock);
  }
  ac.held_locks.push_back(lock);
}

std::vector<LockCycleReport> Analyzer::lock_cycles() const {
  std::vector<LockCycleReport> out;
  std::set<std::vector<std::uint64_t>> seen;  // canonical (rotated) cycles
  std::map<std::uint64_t, int> color;         // 0 white, 1 grey, 2 black
  std::vector<std::uint64_t> path;

  std::function<void(std::uint64_t)> dfs = [&](std::uint64_t u) {
    color[u] = 1;
    path.push_back(u);
    auto eit = lock_edges_.find(u);
    if (eit != lock_edges_.end()) {
      for (const std::uint64_t v : eit->second) {
        if (color[v] == 1) {
          // Back edge: the cycle is the path suffix starting at v.
          auto start = std::find(path.begin(), path.end(), v);
          std::vector<std::uint64_t> cyc(start, path.end());
          // Canonicalize: rotate the smallest lock id to the front.
          auto mn = std::min_element(cyc.begin(), cyc.end());
          std::rotate(cyc.begin(), mn, cyc.end());
          if (seen.insert(cyc).second) {
            LockCycleReport r;
            r.locks = cyc;
            for (const std::uint64_t l : cyc) {
              const sim::PhysAddr a{static_cast<sim::NodeId>(l >> 32),
                                    static_cast<std::uint32_t>(l)};
              r.names.push_back(symbolize(a));
            }
            out.push_back(std::move(r));
          }
        } else if (color[v] == 0) {
          dfs(v);
        }
      }
    }
    color[u] = 2;
    path.pop_back();
  };

  for (const auto& [u, tos] : lock_edges_)
    if (color[u] == 0) dfs(u);
  return out;
}

// --- Hot-word lint -----------------------------------------------------------

std::vector<HotWordReport> Analyzer::hot_words() const {
  std::vector<HotWordReport> out;
  const sim::Time elapsed = m_.now();
  if (elapsed == 0) return out;
  const double service = static_cast<double>(m_.config().module_service_ns);
  for (const auto& [key, s] : shadow_) {
    if (s.remote_words < opt_.hot_min_remote_refs) continue;
    const double occ =
        static_cast<double>(s.remote_words) * service /
        static_cast<double>(elapsed);
    if (occ < opt_.hot_occupancy) continue;
    HotWordReport h;
    h.addr = sim::PhysAddr{static_cast<sim::NodeId>(key >> 32),
                           static_cast<std::uint32_t>(key) * 4};
    h.object = symbolize(h.addr);
    h.remote_words = s.remote_words;
    h.local_words = s.local_words;
    h.occupancy = occ;
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const HotWordReport& a, const HotWordReport& b) {
              return a.occupancy > b.occupancy;
            });
  return out;
}

// --- Symbolization -----------------------------------------------------------

void Analyzer::on_label(sim::PhysAddr a, std::size_t bytes,
                        const std::string& name) {
  labels_[word_key(a.node, a.offset)] =
      Label{static_cast<std::uint32_t>(bytes), name};
}

std::string Analyzer::symbolize(sim::PhysAddr a) const {
  auto it = labels_.upper_bound(word_key(a.node, a.offset));
  if (it != labels_.begin()) {
    --it;
    const auto node = static_cast<sim::NodeId>(it->first >> 32);
    const auto start = static_cast<std::uint32_t>(it->first);
    if (node == a.node && a.offset < start + it->second.len) {
      if (a.offset == start) return it->second.name;
      return it->second.name + "+" + std::to_string(a.offset - start);
    }
  }
  std::ostringstream os;
  os << "node " << a.node << " +0x" << std::hex << a.offset;
  return os.str();
}

// --- Report ------------------------------------------------------------------

std::string Analyzer::report() const {
  std::ostringstream os;
  os << "bfly::analyze report\n";
  os << "  races: " << races_total_ << "\n";
  for (const RaceReport& r : races_) {
    os << "    RACE on " << r.object << " (node " << r.addr.node << " +0x"
       << std::hex << r.addr.offset << std::dec << ")\n"
       << "      " << op_name(r.prior_op) << " by " << r.prior_actor
       << " at t=" << r.prior_at << " (epoch " << r.prior_clock << ")\n"
       << "      " << op_name(r.op) << " by " << r.actor << " at t=" << r.at
       << " (saw epoch " << r.seen_of_prior << " of prior actor)\n";
  }
  const auto cycles = lock_cycles();
  os << "  lock-order cycles: " << cycles.size() << "\n";
  for (const LockCycleReport& c : cycles) {
    os << "    CYCLE:";
    for (const std::string& n : c.names) os << " " << n;
    os << "\n";
  }
  const auto hot = hot_words();
  os << "  hot words: " << hot.size() << "\n";
  for (const HotWordReport& h : hot) {
    os << "    HOT " << h.object << ": occupancy "
       << static_cast<int>(h.occupancy * 100) << "% (" << h.remote_words
       << " remote / " << h.local_words << " local word refs)\n";
  }
  return os.str();
}

}  // namespace bfly::analyze
