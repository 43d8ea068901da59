#include "scope/scope.hpp"

#include "sim/fiber.hpp"

namespace bfly::scope {

Tracer::Tracer(sim::Machine& m, ScopeOptions opt)
    : m_(m),
      opt_(opt),
      next_tid_(m.nodes() + 1, 1),  // last slot: host context
      series_(m.nodes()) {
  if (opt_.bin_ns == 0) opt_.bin_ns = sim::kMillisecond;
  m_.attach(this);
}

Tracer::~Tracer() { m_.detach(this); }

void Tracer::on_spawn(sim::Fiber* /*parent*/, sim::Fiber* child) {
  // A freed fiber's address can be reused by a later spawn, on any node:
  // forget the old fiber's track so the new one starts its own.
  track_ix_.erase(child);
}

std::uint32_t Tracer::track_for(sim::Fiber* f, sim::NodeId node) {
  auto it = track_ix_.find(f);
  if (it != track_ix_.end()) return it->second;
  Track t;
  t.node = node;
  const std::size_t slot = node == sim::kTraceHostNode ? m_.nodes() : node;
  t.tid = next_tid_[slot]++;
  if (f == nullptr) {
    t.name = "host";
  } else {
    t.name = f->name().empty() ? "fiber" : f->name();
  }
  const auto ix = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(std::move(t));
  track_ix_.emplace(f, ix);
  return ix;
}

void Tracer::on_span_begin(sim::Fiber* f, sim::NodeId node, const char* cat,
                           const char* name, std::uint64_t arg) {
  const std::uint32_t ix = track_for(f, node);
  Track& t = tracks_[ix];
  if (events_.size() >= opt_.max_events) {
    ++t.skip;
    ++dropped_;
    return;
  }
  events_.push_back(Event{m_.now(), Event::kBegin, ix, cat, name, arg});
  ++t.open;
  ++begin_count_;
}

void Tracer::on_span_end(sim::Fiber* f, sim::NodeId node) {
  const std::uint32_t ix = track_for(f, node);
  Track& t = tracks_[ix];
  // Ends match innermost-first, so a pending skip always corresponds to the
  // most recent (dropped) begin on this track.
  if (t.skip > 0) {
    --t.skip;
    return;
  }
  if (t.open == 0) return;  // unmatched end (kill-unwinding): ignore
  events_.push_back(Event{m_.now(), Event::kEnd, ix, nullptr, nullptr, 0});
  --t.open;
  ++end_count_;
}

void Tracer::on_instant(sim::Fiber* f, sim::NodeId node, const char* cat,
                        const char* name, std::uint64_t arg) {
  const std::uint32_t ix = track_for(f, node);
  if (events_.size() >= opt_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{m_.now(), Event::kInstant, ix, cat, name, arg});
  ++instant_count_;
}

void Tracer::on_reference(sim::Fiber* /*f*/, sim::NodeId requester,
                          sim::PhysAddr a, std::uint32_t words,
                          sim::MemOp /*op*/, sim::Time queue_ns, sim::Time at) {
  const sim::NodeId home = a.node;
  ++refs_seen_;
  const std::size_t bin = at / opt_.bin_ns;
  if (bin > max_bin_) max_bin_ = bin;
  // References arrive in time order (the engine clock never moves
  // backwards), so a node's current bin is always its last cell.
  auto cell = [bin](NodeSeries& s) -> Cell& {
    if (s.empty() || s.back().bin != bin) s.push_back(Cell{bin});
    return s.back();
  };
  // The home module is busy words * service time; queueing is charged to
  // the module the traffic piled up at.
  Cell& h = cell(series_[home]);
  h.occupancy_ns +=
      static_cast<sim::Time>(words) * m_.config().module_service_ns;
  h.queue_ns += queue_ns;
  // Locality mix is the requester's view.
  Cell& r = cell(series_[requester]);
  if (requester == home) {
    r.local_words += words;
  } else {
    r.remote_words += words;
  }
}

std::vector<Tracer::Span> Tracer::completed_spans() const {
  std::vector<Span> out;
  out.reserve(end_count_ + tracks_.size());
  std::vector<std::vector<std::size_t>> stacks(tracks_.size());
  for (const Event& e : events_) {
    switch (e.kind) {
      case Event::kBegin:
        stacks[e.track].push_back(out.size());
        out.push_back(Span{e.at, e.at, e.track, e.cat, e.name});
        break;
      case Event::kEnd: {
        auto& st = stacks[e.track];
        // The log never records an unmatched end, but stay defensive.
        if (!st.empty()) {
          out[st.back()].end = e.at;
          st.pop_back();
        }
        break;
      }
      case Event::kInstant:
        break;
    }
  }
  // Spans still open when the exporter runs close at the current time.
  const sim::Time now = m_.now();
  for (auto& st : stacks)
    for (std::size_t ix : st) out[ix].end = now;
  return out;
}

}  // namespace bfly::scope
