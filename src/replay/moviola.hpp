// Moviola — the graphical execution browser of the Rochester debugging
// toolkit (Fowler, LeBlanc & Mellor-Crummey 1988; Section 3.3).
//
// Moviola "makes it possible to examine the partial order of events in a
// parallel program at arbitrary levels of detail"; it "has been used to
// discover performance bottlenecks and message-ordering bugs, and to derive
// analytical predictions of running times".  Figure 6 of the paper is a
// Moviola view of deadlock in an odd-even merge sort.
//
// This library builds the event partial order from an Instant Replay log:
// per-actor program-order chains plus the version dependences between
// accesses to shared objects (write creating version v happens-before every
// read of v; reads of v happen-before the write replacing v).  It exports
// Graphviz DOT for display and computes the critical path.  The Figure 6
// deadlock view (who is blocked on what) is moviola::Detector's report,
// built from the same run's wait-for edges (src/moviola).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay/instant_replay.hpp"

namespace bfly::replay {

class Moviola {
 public:
  struct Event {
    std::uint32_t actor;
    std::uint32_t seq;     ///< position in the actor's timeline
    AccessEntry entry;
  };
  struct Edge {
    std::uint32_t from;  ///< event index
    std::uint32_t to;
  };

  explicit Moviola(const Log& log);

  const std::vector<Event>& events() const { return events_; }
  /// Program-order plus cross-actor dependence edges.
  const std::vector<Edge>& edges() const { return edges_; }
  std::size_t cross_actor_edges() const { return cross_edges_; }

  /// Longest dependence chain, in events — the abstract critical path.
  std::uint32_t critical_path() const;

  /// Events per actor (load-balance view).
  std::vector<std::uint32_t> events_per_actor() const;

  /// The serialization bottleneck: the shared object whose version chain
  /// is longest ("used to discover performance bottlenecks").
  struct Bottleneck {
    std::uint32_t object = 0;
    std::uint32_t chain = 0;   ///< events serialized through it
    std::string name;
  };
  Bottleneck bottleneck() const;

  /// Graphviz rendering of the partial order (one horizontal rank per
  /// actor, dashed cross-actor dependences).
  std::string to_dot() const;

 private:
  const Log& log_;
  std::vector<Event> events_;
  std::vector<Edge> edges_;
  std::size_t cross_edges_ = 0;
};

}  // namespace bfly::replay
