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

std::uint32_t Tracer::intern(const char* cat, const char* name) {
  const auto [it, added] = name_ix_.try_emplace(
      Name{cat, name}, static_cast<std::uint32_t>(names_.size()));
  if (added) names_.push_back(Name{cat, name});
  return it->second;
}

std::uint8_t* Tracer::log_span_event(Record::Kind kind, std::uint32_t track) {
  const sim::Time at = m_.now();
  const std::uint64_t dt = at - last_at_;
  last_at_ = at;
  const unsigned cdt = len_code(dt);
  const unsigned ctr = len_code(track);
  std::uint8_t* p = log_.record();
  p[0] = static_cast<std::uint8_t>(kind | cdt << 2 | ctr << 5);
  return put_value(put_value(p + 1, dt, cdt), track, ctr);
}

void Tracer::log_named(Record::Kind kind, std::uint32_t track,
                       const char* cat, const char* name, std::uint64_t arg) {
  std::uint8_t* p = log_span_event(kind, track);
  const std::uint32_t nm = intern(cat, name);
  const unsigned cnm = len_code(nm);
  const unsigned carg = len_code(arg);
  p[0] = static_cast<std::uint8_t>(cnm | carg << 3);
  log_.commit(put_value(put_value(p + 1, nm, cnm), arg, carg));
}

void Tracer::on_span_begin(sim::Fiber* f, sim::NodeId node, const char* cat,
                           const char* name, std::uint64_t arg) {
  const std::uint32_t ix = track_for(f, node);
  Track& t = tracks_[ix];
  if (begin_count_ + end_count_ + instant_count_ >= opt_.max_events) {
    ++t.skip;
    ++dropped_;
    return;
  }
  log_named(Record::kBegin, ix, cat, name, arg);
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
  log_.commit(log_span_event(Record::kEnd, ix));
  --t.open;
  ++end_count_;
}

void Tracer::on_instant(sim::Fiber* f, sim::NodeId node, const char* cat,
                        const char* name, std::uint64_t arg) {
  const std::uint32_t ix = track_for(f, node);
  if (begin_count_ + end_count_ + instant_count_ >= opt_.max_events) {
    ++dropped_;
    return;
  }
  log_named(Record::kInstant, ix, cat, name, arg);
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
  // The home module serves the words (it is busy words * service time);
  // queueing is charged to the module the traffic piled up at.
  Sums& h = touch(home);
  h.home_words += words;
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
    const std::uint64_t gap = open_bin_ - last_bin_ - 1;
    const unsigned cgap = len_code(gap);
    std::uint8_t* p = log_.record();
    p[0] = static_cast<std::uint8_t>(Record::kCell | cgap << 2);
    log_.commit(put_value(p + 1, gap, cgap));
    last_bin_ = open_bin_;
    std::int64_t prev = 0;
    for (std::size_t t = 0; t < touched_n_; ++t) {
      const sim::NodeId n = touched_[t];
      // Written without branches: a zero sum's code is 0, so the cursor
      // does not move past the word stored for it.
      const std::uint64_t dn = zigzag(std::int64_t{n} - prev);
      prev = n;
      const Sums& s = open_[n].sums;
      std::uint8_t* w = log_.record();
      unsigned head = len_code(dn);
      std::uint8_t* v = put_value(w + 2, dn, head);
      for (std::size_t i = 0; i < std::size(kSums); ++i) {
        const std::uint64_t x = s.*kSums[i];
        const unsigned c = len_code(x);
        v = put_value(v, x, c);
        head |= c << (3 + 3 * i);
      }
      head |= unsigned{t + 1 == touched_n_} << 15;  // the bin's last cell
      w[0] = static_cast<std::uint8_t>(head);
      w[1] = static_cast<std::uint8_t>(head >> 8);
      log_.commit(v);
      open_[n] = OpenCell{};
    }
    touched_n_ = 0;
  }
  open_bin_ = at / opt_.bin_ns;
  // The last bin of the clock's range may be cut short.
  const sim::Time start = open_bin_ * opt_.bin_ns;
  open_last_ = start + std::min(opt_.bin_ns - 1, ~sim::Time{0} - start);
}

bool Tracer::Reader::next(Record& r) {
  const std::uint8_t* p = in_.record();
  if (p == nullptr) return false;
  const std::uint8_t* const first = p;
  r.bytes = 0;
  if (!in_bin_ && (p[0] & 3) == Record::kCell) {
    // A closed bin's head; at least one cell follows.
    ++p;
    bin_ += get_value(p, first[0] >> 2 & 7) + 1;
    in_bin_ = true;
    node_ = 0;
    r.bytes = static_cast<std::size_t>(p - first);
    in_.commit(p);
    p = in_.record();
  }
  if (in_bin_) {
    const unsigned head = p[0] | unsigned{p[1]} << 8;
    const std::uint8_t* v = p + 2;
    node_ += unzigzag(get_value(v, head & 7));
    r.kind = Record::kCell;
    r.node = static_cast<sim::NodeId>(node_);
    r.cell = Cell{};
    r.cell.bin = bin_;
    for (std::size_t i = 0; i < std::size(kSums); ++i)
      r.cell.*kSums[i] = get_value(v, head >> (3 + 3 * i) & 7);
    r.bytes += static_cast<std::size_t>(v - p);
    in_bin_ = (head >> 15) == 0;
    in_.commit(v);
    return true;
  }
  r.kind = static_cast<Record::Kind>(p[0] & 3);
  const std::uint8_t* v = p + 1;
  at_ += get_value(v, p[0] >> 2 & 7);
  r.at = at_;
  r.track = static_cast<std::uint32_t>(get_value(v, p[0] >> 5));
  r.cat = r.name = nullptr;
  r.arg = 0;
  if (r.kind != Record::kEnd) {
    const unsigned head = *v++;
    const Name& nm = t_.names_[get_value(v, head & 7)];
    r.cat = nm.cat;
    r.name = nm.name;
    r.arg = get_value(v, head >> 3 & 7);
  }
  r.bytes = static_cast<std::size_t>(v - p);
  in_.commit(v);
  return true;
}

Tracer::LogBytes Tracer::log_bytes() const {
  LogBytes out;
  Reader in(*this);
  for (Record r; in.next(r);) {
    if (r.kind == Record::kCell) {
      out.bins += r.bytes;
      ++out.cells;
    } else {
      out.spans += r.bytes;
    }
  }
  return out;
}

std::vector<Tracer::NodeSeries> Tracer::series() const {
  std::vector<NodeSeries> out(m_.nodes());
  Reader in(*this);
  for (Record r; in.next(r);)
    if (r.kind == Record::kCell) out[r.node].push_back(r.cell);
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
  Reader in(*this);
  for (Record e; in.next(e);) {
    switch (e.kind) {
      case Record::kBegin:
        stacks[e.track].push_back(out.size());
        out.push_back(Span{e.at, e.at, e.track, e.cat, e.name});
        break;
      case Record::kEnd: {
        auto& st = stacks[e.track];
        // The log never records an unmatched end, but stay defensive.
        if (!st.empty()) {
          out[st.back()].end = e.at;
          st.pop_back();
        }
        break;
      }
      case Record::kInstant:
      case Record::kCell:
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
