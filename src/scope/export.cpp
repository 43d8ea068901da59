// Exporters and the critical-path / Amdahl analysis for bfly::scope.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "scope/scope.hpp"
#include "sim/json.hpp"

namespace bfly::scope {

namespace {

// Exact microsecond timestamp with nanosecond precision: the trace stays
// monotone because no floating-point rounding is involved.
void ts_us(sim::json::Writer& w, sim::Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  w.key("ts").raw(buf);
}

bool is(const char* s, const char* lit) {
  return s != nullptr && std::strcmp(s, lit) == 0;
}

}  // namespace

std::uint32_t Tracer::chrome_pid(sim::NodeId node) const {
  // pid 0 renders oddly in some viewers; nodes are 1-based in the trace,
  // the host context takes the pid after the last node.
  return node == sim::kTraceHostNode ? m_.nodes() + 1 : node + 1;
}

std::string Tracer::chrome_trace() const {
  using sim::json::Writer;
  Writer w;
  w.begin_object();
  w.kv("displayTimeUnit", "ns");
  w.key("otherData")
      .begin_object()
      .kv("tool", "bfly::scope")
      .kv("nodes", std::uint64_t{m_.nodes()})
      .kv("elapsed_ns", std::uint64_t{m_.now()})
      .kv("dropped_events", dropped_)
      .end_object();
  w.key("traceEvents").begin_array();

  const std::vector<NodeSeries> series = this->series();
  // Metadata: name the per-node "processes" and per-fiber "threads".
  std::vector<bool> node_named(m_.nodes() + 2, false);
  auto name_process = [&](sim::NodeId node) {
    const std::uint32_t pid = chrome_pid(node);
    if (node_named[pid]) return;
    node_named[pid] = true;
    char label[32];
    if (node == sim::kTraceHostNode) {
      std::snprintf(label, sizeof label, "host");
    } else {
      std::snprintf(label, sizeof label, "node %u", node);
    }
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "process_name")
        .kv("pid", std::uint64_t{pid})
        .key("args")
        .begin_object()
        .kv("name", label)
        .end_object()
        .end_object();
    // Keep the node panes in machine order in the viewer.
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "process_sort_index")
        .kv("pid", std::uint64_t{pid})
        .key("args")
        .begin_object()
        .kv("sort_index", std::uint64_t{pid})
        .end_object()
        .end_object();
  };
  for (const Track& t : tracks_) {
    name_process(t.node);
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "thread_name")
        .kv("pid", std::uint64_t{chrome_pid(t.node)})
        .kv("tid", std::uint64_t{t.tid})
        .key("args")
        .begin_object()
        .kv("name", t.name)
        .end_object()
        .end_object();
  }
  for (sim::NodeId n = 0; n < m_.nodes(); ++n)
    if (!series[n].empty()) name_process(n);

  // The span/instant log is time-ordered by construction; the counter
  // samples are generated in bin order.  Merge the two sorted streams so
  // the whole trace stays monotone.
  const sim::Time now = m_.now();
  std::size_t bin = 0;
  const std::size_t bins = series.empty() ? 0 : open_bin_ + 1;
  std::vector<std::size_t> next(series.size(), 0);  // per-node cell cursor
  auto emit_counters_until = [&](sim::Time t) {
    for (; bin < bins && static_cast<sim::Time>(bin) * opt_.bin_ns <= t;
         ++bin) {
      const sim::Time at = static_cast<sim::Time>(bin) * opt_.bin_ns;
      for (sim::NodeId n = 0; n < m_.nodes(); ++n) {
        const NodeSeries& s = series[n];
        if (next[n] == s.size() || s[next[n]].bin != bin) continue;
        const Cell& c = s[next[n]++];
        const auto occ = static_cast<double>(c.occupancy_ns);
        const auto que = static_cast<double>(c.queue_ns);
        const auto loc = static_cast<double>(c.local_words);
        const auto rem = static_cast<double>(c.remote_words);
        if (occ == 0 && que == 0 && loc == 0 && rem == 0) continue;
        const std::uint64_t pid = chrome_pid(n);
        w.begin_object().kv("ph", "C").kv("name", "module").kv("pid", pid);
        ts_us(w, at);
        w.key("args")
            .begin_object()
            .kv("busy_frac", occ / static_cast<double>(opt_.bin_ns))
            .kv("queue_frac", que / static_cast<double>(opt_.bin_ns))
            .end_object()
            .end_object();
        w.begin_object().kv("ph", "C").kv("name", "refs").kv("pid", pid);
        ts_us(w, at);
        w.key("args")
            .begin_object()
            .kv("local_words", static_cast<std::uint64_t>(loc))
            .kv("remote_words", static_cast<std::uint64_t>(rem))
            .end_object()
            .end_object();
      }
    }
  };

  std::vector<std::uint32_t> open(tracks_.size(), 0);
  for (const Event& e : events_) {
    emit_counters_until(e.at);
    const Track& t = tracks_[e.track];
    const std::uint64_t pid = chrome_pid(t.node);
    const std::uint64_t tid = t.tid;
    switch (e.kind) {
      case Event::kBegin:
        w.begin_object()
            .kv("ph", "B")
            .kv("pid", pid)
            .kv("tid", tid)
            .kv("cat", e.cat)
            .kv("name", e.name);
        ts_us(w, e.at);
        w.key("args").begin_object().kv("arg", e.arg).end_object();
        w.end_object();
        ++open[e.track];
        break;
      case Event::kEnd:
        w.begin_object().kv("ph", "E").kv("pid", pid).kv("tid", tid);
        ts_us(w, e.at);
        w.end_object();
        --open[e.track];
        break;
      case Event::kInstant:
        w.begin_object()
            .kv("ph", "i")
            .kv("s", "t")
            .kv("pid", pid)
            .kv("tid", tid)
            .kv("cat", e.cat)
            .kv("name", e.name);
        ts_us(w, e.at);
        w.key("args").begin_object().kv("arg", e.arg).end_object();
        w.end_object();
        break;
    }
  }
  emit_counters_until(now);
  // Close anything still open so every B has its E.
  for (std::size_t i = 0; i < open.size(); ++i) {
    for (std::uint32_t k = 0; k < open[i]; ++k) {
      w.begin_object()
          .kv("ph", "E")
          .kv("pid", std::uint64_t{chrome_pid(tracks_[i].node)})
          .kv("tid", std::uint64_t{tracks_[i].tid});
      ts_us(w, now);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

CriticalPathReport Tracer::critical_path() const {
  CriticalPathReport r;
  r.elapsed = m_.now();
  const std::vector<Span> spans = completed_spans();

  // Pull out the Uniform System task graph: task spans, barrier ends.
  std::vector<Span> tasks;
  std::vector<sim::Time> barriers;
  std::vector<bool> worker_track(tracks_.size(), false);
  for (const Span& s : spans) {
    if (is(s.cat, "us") && is(s.name, "task")) {
      tasks.push_back(s);
      worker_track[s.track] = true;
    } else if (is(s.cat, "us") && is(s.name, "wait_idle")) {
      barriers.push_back(s.end);
    }
  }
  r.tasks = tasks.size();
  for (std::size_t i = 0; i < worker_track.size(); ++i)
    if (worker_track[i]) ++r.workers;
  for (const Span& t : tasks) r.task_busy += t.end - t.begin;

  // Concurrency sweep: how much of the run had <= 1 task in flight?
  // (Spans are begin-ordered; merge begin/end event lists.)
  {
    std::vector<sim::Time> ends;
    ends.reserve(tasks.size());
    for (const Span& t : tasks) ends.push_back(t.end);
    std::sort(ends.begin(), ends.end());
    std::size_t bi = 0, ei = 0;
    std::uint64_t active = 0;
    sim::Time prev = 0;
    sim::Time parallel_ns = 0;  // time with >= 2 active
    while (bi < tasks.size() || ei < ends.size()) {
      sim::Time t;
      bool isb;
      if (bi < tasks.size() &&
          (ei >= ends.size() || tasks[bi].begin < ends[ei])) {
        t = tasks[bi].begin;
        isb = true;
      } else {
        t = ends[ei];
        isb = false;
      }
      if (active >= 2) parallel_ns += t - prev;
      prev = t;
      if (isb) {
        ++active;
        ++bi;
      } else {
        --active;
        ++ei;
      }
    }
    r.serial_ns = r.elapsed > parallel_ns ? r.elapsed - parallel_ns : 0;
  }
  r.serial_fraction = r.elapsed != 0
                          ? static_cast<double>(r.serial_ns) /
                                static_cast<double>(r.elapsed)
                          : 0.0;
  r.avg_parallelism = r.elapsed != 0
                          ? static_cast<double>(r.task_busy) /
                                static_cast<double>(r.elapsed)
                          : 0.0;

  // Phases: intervals between consecutive barrier ends.  Without barriers
  // the whole run is one phase.
  std::sort(barriers.begin(), barriers.end());
  barriers.erase(std::unique(barriers.begin(), barriers.end()),
                 barriers.end());
  if (barriers.empty() || barriers.back() < r.elapsed)
    barriers.push_back(r.elapsed);
  {
    sim::Time prev = 0;
    for (sim::Time b : barriers) {
      r.phases.push_back(PhaseStat{prev, b, 0, 0, 0});
      prev = b;
    }
  }
  auto phase_of = [&](sim::Time end) -> PhaseStat& {
    // First phase whose interval contains the task's completion.
    auto it = std::lower_bound(
        barriers.begin(), barriers.end(), end);
    std::size_t ix = static_cast<std::size_t>(it - barriers.begin());
    if (ix >= r.phases.size()) ix = r.phases.size() - 1;
    return r.phases[ix];
  };
  // Critical path: all time where no task was running is serial glue and
  // stays; each phase's task-active time collapses to its longest task.
  sim::Time task_active_total = 0;
  {
    // Re-sweep for >= 1 active, segmented by phase.
    std::vector<sim::Time> ends;
    for (const Span& t : tasks) {
      PhaseStat& p = phase_of(t.end);
      ++p.tasks;
      p.busy += t.end - t.begin;
      p.longest = std::max(p.longest, t.end - t.begin);
      ends.push_back(t.end);
    }
    std::sort(ends.begin(), ends.end());
    std::size_t bi = 0, ei = 0;
    std::uint64_t active = 0;
    sim::Time prev = 0;
    while (bi < tasks.size() || ei < ends.size()) {
      sim::Time t;
      bool isb;
      if (bi < tasks.size() &&
          (ei >= ends.size() || tasks[bi].begin < ends[ei])) {
        t = tasks[bi].begin;
        isb = true;
      } else {
        t = ends[ei];
        isb = false;
      }
      if (active >= 1) task_active_total += t - prev;
      prev = t;
      if (isb) {
        ++active;
        ++bi;
      } else {
        --active;
        ++ei;
      }
    }
  }
  const sim::Time glue =
      r.elapsed > task_active_total ? r.elapsed - task_active_total : 0;
  sim::Time longest_sum = 0;
  for (const PhaseStat& p : r.phases) longest_sum += p.longest;
  r.critical_path = glue + longest_sum;
  r.serial_elapsed_est = glue + r.task_busy;
  r.speedup_bound = r.critical_path != 0
                        ? static_cast<double>(r.serial_elapsed_est) /
                              static_cast<double>(r.critical_path)
                        : 0.0;

  // Capacity decomposition over the nodes that ran tasks.
  std::vector<bool> is_worker_node(m_.nodes(), false);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (worker_track[i] && tracks_[i].node != sim::kTraceHostNode)
      is_worker_node[tracks_[i].node] = true;
  }
  const sim::MachineStats& st = m_.stats();
  for (sim::NodeId n = 0; n < m_.nodes(); ++n) {
    if (!is_worker_node[n]) continue;
    ++r.worker_nodes;
    const sim::NodeStats& s = st.node[n];
    r.compute_ns += s.compute_ns;
    r.contention_ns += s.queue_ns;
    r.mem_wait_ns += s.stall_ns > s.queue_ns ? s.stall_ns - s.queue_ns : 0;
  }
  r.capacity = static_cast<sim::Time>(r.worker_nodes) * r.elapsed;
  const sim::Time busy = r.compute_ns + r.mem_wait_ns + r.contention_ns;
  r.idle_ns = r.capacity > busy ? r.capacity - busy : 0;
  return r;
}

std::string Tracer::report() const {
  const CriticalPathReport r = critical_path();
  std::string out;
  char buf[256];
  auto line = [&](const char* fmt, auto... a) {
    std::snprintf(buf, sizeof buf, fmt, a...);
    out += buf;
    out += '\n';
  };
  line("%s", "critical-path / Amdahl report (simulated time)");
  line("  elapsed            %s", sim::format_duration(r.elapsed).c_str());
  line("  tasks              %llu on %u workers (%u nodes)",
       static_cast<unsigned long long>(r.tasks), r.workers, r.worker_nodes);
  line("  task busy          %s (avg parallelism %.2f)",
       sim::format_duration(r.task_busy).c_str(), r.avg_parallelism);
  line("  serial fraction    %.4f (%s with <=1 task in flight)",
       r.serial_fraction, sim::format_duration(r.serial_ns).c_str());
  line("  critical path      %s  -> speedup bound %.2fx",
       sim::format_duration(r.critical_path).c_str(), r.speedup_bound);
  if (r.capacity != 0) {
    auto pct = [&](sim::Time t) {
      return 100.0 * static_cast<double>(t) /
             static_cast<double>(r.capacity);
    };
    line("  capacity           %s = %u workers x elapsed",
         sim::format_duration(r.capacity).c_str(), r.worker_nodes);
    line("    compute          %5.1f%%", pct(r.compute_ns));
    line("    remote-mem wait  %5.1f%%", pct(r.mem_wait_ns));
    line("    contention       %5.1f%%", pct(r.contention_ns));
    line("    idle/overhead    %5.1f%%", pct(r.idle_ns));
  }
  line("  phases             %zu", r.phases.size());
  std::size_t shown = 0;
  for (std::size_t i = 0; i < r.phases.size() && shown < 12; ++i) {
    const PhaseStat& p = r.phases[i];
    if (p.tasks == 0) continue;
    ++shown;
    line("    [%3zu] %8s  tasks %5llu  busy %10s  longest %10s", i,
         sim::format_duration(p.end - p.begin).c_str(),
         static_cast<unsigned long long>(p.tasks),
         sim::format_duration(p.busy).c_str(),
         sim::format_duration(p.longest).c_str());
  }
  const auto with_tasks = static_cast<std::size_t>(
      std::count_if(r.phases.begin(), r.phases.end(),
                    [](const PhaseStat& p) { return p.tasks != 0; }));
  if (shown < with_tasks)
    line("    ... (%zu phases with tasks total)", with_tasks);
  return out;
}

std::string Tracer::metrics_json() const {
  using sim::json::Writer;
  const CriticalPathReport r = critical_path();
  sim::MachineStats& st = m_.stats();
  Writer w;
  w.begin_object();
  w.kv("bench", "scope");
  w.kv("elapsed_ns", std::uint64_t{m_.now()});
  w.kv("nodes", std::uint64_t{m_.nodes()});
  w.kv("spans", begin_count_);
  w.kv("instants", instant_count_);
  w.kv("dropped", dropped_);
  w.kv("references", refs_seen_);
  w.key("refs")
      .begin_object()
      .kv("local", st.total_local_refs())
      .kv("remote", st.total_remote_refs())
      .kv("queue_ns", std::uint64_t{st.total_queue_ns()})
      .end_object();
  w.raw(std::string("\"fault\":{") + st.fault_json() + "}");
  w.key("series").begin_object();
  w.kv("bin_ns", std::uint64_t{opt_.bin_ns});
  w.key("node").begin_array();
  const std::vector<NodeSeries> series = this->series();
  const std::size_t bins = open_bin_ + 1;
  for (sim::NodeId n = 0; n < m_.nodes(); ++n) {
    const NodeSeries& s = series[n];
    if (s.empty()) continue;
    w.begin_object().kv("node", std::uint64_t{n});
    auto arr = [&](const char* k, auto field) {
      w.key(k).begin_array();
      auto c = s.begin();
      for (std::size_t b = 0; b < bins; ++b) {
        std::uint64_t v = 0;
        if (c != s.end() && c->bin == b) v = (*c++).*field;
        w.value(v);
      }
      w.end_array();
    };
    arr("occupancy_ns", &Cell::occupancy_ns);
    arr("queue_ns", &Cell::queue_ns);
    arr("local_words", &Cell::local_words);
    arr("remote_words", &Cell::remote_words);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("critical_path")
      .begin_object()
      .kv("tasks", r.tasks)
      .kv("workers", std::uint64_t{r.workers})
      .kv("task_busy_ns", std::uint64_t{r.task_busy})
      .kv("serial_ns", std::uint64_t{r.serial_ns})
      .kv("serial_fraction", r.serial_fraction)
      .kv("avg_parallelism", r.avg_parallelism)
      .kv("critical_path_ns", std::uint64_t{r.critical_path})
      .kv("speedup_bound", r.speedup_bound)
      .kv("phases", std::uint64_t{r.phases.size()})
      .kv("capacity_ns", std::uint64_t{r.capacity})
      .kv("compute_ns", std::uint64_t{r.compute_ns})
      .kv("mem_wait_ns", std::uint64_t{r.mem_wait_ns})
      .kv("contention_ns", std::uint64_t{r.contention_ns})
      .kv("idle_ns", std::uint64_t{r.idle_ns})
      .end_object();
  w.end_object();
  return w.take();
}

}  // namespace bfly::scope
