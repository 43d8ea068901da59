#include "scope/scope.hpp"

#include <algorithm>
#include <iterator>

#include "sim/fiber.hpp"

namespace bfly::scope {

namespace {
constexpr std::uint32_t kNoTrack = 0xffffffffu;
}  // namespace

Tracer::Tracer(sim::Machine& m, ScopeOptions opt)
    : m_(m),
      opt_(opt),
      next_tid_(m.nodes() + 1, 1),  // last slot: host context
      open_(m.nodes()),
      touched_(m.nodes() + 1) {  // touch() writes one slot past the list
  if (opt_.bin_ns == 0) opt_.bin_ns = sim::kMillisecond;
  open_last_ = opt_.bin_ns - 1;
  m_.attach(this);
}

Tracer::~Tracer() { m_.detach(this); }

std::uint32_t Tracer::track_for(sim::Fiber* f, sim::NodeId node) {
  const std::size_t slot = f == nullptr ? 0 : f->spawn_index() + 1;
  if (slot >= track_ix_.size()) track_ix_.resize(slot + 1, kNoTrack);
  std::uint32_t& ix = track_ix_[slot];
  if (ix != kNoTrack) return ix;
  Track t;
  t.node = node;
  const std::size_t tid_slot = node == sim::kTraceHostNode ? m_.nodes() : node;
  t.tid = next_tid_[tid_slot]++;
  if (f == nullptr) {
    t.name = "host";
  } else {
    t.name = f->name().empty() ? "fiber" : f->name();
  }
  ix = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(std::move(t));
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
  // References arrive in time order (the engine clock never moves
  // backwards), so only one past the open bin's end starts a new bin.
  if (at > open_last_) advance_bin(at);
  // The home module is busy words * service time; queueing is charged to
  // the module the traffic piled up at.
  Sums& h = touch(home);
  h.occupancy_ns +=
      static_cast<sim::Time>(words) * m_.config().module_service_ns;
  h.queue_ns += queue_ns;
  // Locality mix is the requester's view.
  Sums& r = touch(requester);
  const bool local = requester == home;
  r.local_words += local ? words : 0;
  r.remote_words += local ? 0 : words;
}

Tracer::Sums& Tracer::touch(sim::NodeId node) {
  // Without a branch: the node always goes in the slot past the list, and
  // the list grows over it only if the bin had not seen the node yet.
  OpenCell& c = open_[node];
  touched_[touched_n_] = node;
  touched_n_ += !c.touched;
  c.touched = true;
  return c.sums;
}

void Tracer::advance_bin(sim::Time at) {
  if (touched_n_ != 0) {
    std::uint64_t* w = log_.record();
    w[0] = open_bin_;
    w[1] = touched_n_;
    log_.next = w + 2;
    for (std::size_t t = 0; t < touched_n_; ++t) {
      const sim::NodeId n = touched_[t];
      // Written without branches: each sum is stored, and the cursor moves
      // past it only if it is non-zero.
      const Sums& s = open_[n].sums;
      w = log_.record();
      std::uint64_t* v = w + 1;
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i < std::size(kSums); ++i) {
        const std::uint64_t x = s.*kSums[i];
        *v = x;
        v += x != 0;
        mask |= std::uint64_t{x != 0} << i;
      }
      w[0] = std::uint64_t{n} << 4 | mask;
      log_.next = v;
      open_[n] = OpenCell{};
    }
    touched_n_ = 0;
  }
  open_bin_ = at / opt_.bin_ns;
  // The last bin of the clock's range may be cut short.
  const sim::Time start = open_bin_ * opt_.bin_ns;
  open_last_ = start + std::min(opt_.bin_ns - 1, ~sim::Time{0} - start);
}

std::vector<std::uint64_t> Tracer::BinLog::words() const {
  std::vector<std::uint64_t> out;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::uint64_t* w = chunks[c].get();
    out.insert(out.end(), w, c < used.size() ? w + used[c] : next);
  }
  return out;
}

std::vector<Tracer::NodeSeries> Tracer::series() const {
  std::vector<NodeSeries> out(m_.nodes());
  const std::vector<std::uint64_t> log = log_.words();
  for (std::size_t i = 0; i < log.size();) {
    const std::size_t bin = log[i++];
    for (std::uint64_t cells = log[i++]; cells > 0; --cells) {
      const std::uint64_t head = log[i++];
      Cell c;
      c.bin = bin;
      for (std::size_t k = 0; k < std::size(kSums); ++k)
        if (head >> k & 1) c.*kSums[k] = log[i++];
      out[head >> 4].push_back(c);
    }
  }
  for (std::size_t t = 0; t < touched_n_; ++t) {
    const sim::NodeId n = touched_[t];
    out[n].push_back(Cell{open_[n].sums, open_bin_});
  }
  return out;
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
