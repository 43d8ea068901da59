#include "replay/moviola.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace bfly::replay {

Moviola::Moviola(const Log& log) : log_(log) {
  // Flatten events, keeping (object, version) indices for dependences.
  // writer_of[obj][v]  = event that created version v (wrote over v-1)
  // readers_of[obj][v] = events that read version v
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> writer_of;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::uint32_t>>
      readers_of;

  for (std::uint32_t a = 0; a < log.per_actor.size(); ++a) {
    for (std::uint32_t s = 0; s < log.per_actor[a].size(); ++s) {
      const auto idx = static_cast<std::uint32_t>(events_.size());
      events_.push_back(Event{a, s, log.per_actor[a][s]});
      if (s > 0) edges_.push_back(Edge{idx - 1, idx});  // program order
      const AccessEntry& e = log.per_actor[a][s];
      if (e.is_write) {
        // This write observed `e.version` and created `e.version + 1`.
        writer_of[{e.object, e.version + 1}] = idx;
      } else {
        readers_of[{e.object, e.version}].push_back(idx);
      }
    }
  }
  // Cross edges: creator(v) -> readers(v); readers(v) -> replacer(v).
  for (const auto& [key, readers] : readers_of) {
    auto w = writer_of.find(key);
    for (std::uint32_t r : readers) {
      if (w != writer_of.end()) {
        edges_.push_back(Edge{w->second, r});
        ++cross_edges_;
      }
      auto next_w = writer_of.find({key.first, key.second + 1});
      // The write replacing version v observed v: it must follow readers
      // of v.  Find it via the writer that observed key.second.
      if (next_w != writer_of.end()) {
        edges_.push_back(Edge{r, next_w->second});
        ++cross_edges_;
      }
    }
  }
  // Write-write chains (when a version had no readers).
  for (const auto& [key, w] : writer_of) {
    auto next_w = writer_of.find({key.first, key.second + 1});
    if (next_w != writer_of.end()) {
      edges_.push_back(Edge{w, next_w->second});
      ++cross_edges_;
    }
  }
}

std::uint32_t Moviola::critical_path() const {
  if (events_.empty()) return 0;
  // Longest path in the DAG: process in topological order (events were
  // appended in a valid order per actor; use relaxation over edges until
  // fixpoint — the graph is small and acyclic).
  std::vector<std::uint32_t> depth(events_.size(), 1);
  bool changed = true;
  std::size_t rounds = 0;
  while (changed && rounds <= events_.size()) {
    changed = false;
    ++rounds;
    for (const Edge& e : edges_) {
      if (depth[e.to] < depth[e.from] + 1) {
        depth[e.to] = depth[e.from] + 1;
        changed = true;
      }
    }
  }
  return *std::max_element(depth.begin(), depth.end());
}

std::vector<std::uint32_t> Moviola::events_per_actor() const {
  std::vector<std::uint32_t> out(log_.per_actor.size(), 0);
  for (const Event& e : events_) ++out[e.actor];
  return out;
}

Moviola::Bottleneck Moviola::bottleneck() const {
  std::map<std::uint32_t, std::uint32_t> chain;  // object -> event count
  for (const Event& e : events_) ++chain[e.entry.object];
  Bottleneck b;
  for (const auto& [obj, n] : chain) {
    if (n > b.chain) {
      b.object = obj;
      b.chain = n;
      b.name = obj < log_.object_names.size() ? log_.object_names[obj]
                                              : "obj" + std::to_string(obj);
    }
  }
  return b;
}

std::string Moviola::to_dot() const {
  std::ostringstream os;
  os << "digraph moviola {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::uint32_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    const std::string obj =
        ev.entry.object < log_.object_names.size()
            ? log_.object_names[ev.entry.object]
            : "obj" + std::to_string(ev.entry.object);
    os << "  e" << i << " [label=\"P" << ev.actor << "."
       << ev.seq << " " << (ev.entry.is_write ? "W" : "R") << "(" << obj
       << ",v" << ev.entry.version << ")\"];\n";
  }
  // Same-actor chains solid, cross-actor dashed.
  for (const Edge& e : edges_) {
    const bool same = events_[e.from].actor == events_[e.to].actor;
    os << "  e" << e.from << " -> e" << e.to
       << (same ? ";\n" : " [style=dashed];\n");
  }
  os << "}\n";
  return os.str();
}

}  // namespace bfly::replay
