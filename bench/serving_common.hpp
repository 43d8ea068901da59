// Scaffolding shared by the two serving benches (tserving, tpartition): the
// serving-class disk, the open-loop arrival gap, and the failure detector
// both run under.  Their client loops stay in each bench: they record
// different things.  The tagged block content and the read-back rule are
// tserving's, shared with sched_fuzz's serving cell.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "serve/serve.hpp"

namespace bfly::bench {

// Serving-class disks: a 2 ms seek + 1 ms block transfer keeps one server's
// service time near 3 ms.
inline bridge::DiskParams serving_disk() {
  bridge::DiskParams d;
  d.seek_ns = 2 * sim::kMillisecond;
  d.block_transfer_ns = 1 * sim::kMillisecond;
  return d;
}

// Exponential inter-arrival gap (open-loop Poisson), clamped away from the
// distribution's pathological ends so one unlucky draw cannot stall a
// worker for the whole run.
inline sim::Time exp_gap(sim::Rng& rng, double mean_s) {
  double g = -mean_s * std::log(1.0 - rng.uniform());
  g = std::min(g, 50.0 * mean_s);
  const double ns = g * static_cast<double>(sim::kSecond);
  const auto t = static_cast<sim::Time>(ns);
  return std::max<sim::Time>(t, 10 * sim::kMicrosecond);
}

// Serving nodes run 3 ms non-preemptible disk charges, which starve
// heartbeat daemons under load; the rescue defaults (2 ms beat / 8 ms
// suspicion) would false-suspect constantly.  50 ms detection is still an
// order of magnitude under the 400 ms request deadline.
inline rescue::RescueConfig serving_detector() {
  rescue::RescueConfig rc;
  rc.monitor_node = 14;  // watchdog off the serving nodes
  rc.heartbeat_period = 10 * sim::kMillisecond;
  rc.suspect_after = 50 * sim::kMillisecond;
  return rc;
}

/// Block content for (file, block, tag): the tag in the first eight bytes,
/// then a pattern tied to all three.  Each write carries a unique tag, so a
/// read names the write it returns; the seed data has tag 0.
inline void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t f,
                       std::uint32_t b, std::uint64_t tag) {
  blk.assign(bridge::kBlockSize, 0);
  std::memcpy(blk.data(), &tag, sizeof tag);
  for (std::size_t i = sizeof tag; i < blk.size(); ++i)
    blk[i] = static_cast<std::uint8_t>(
        (f * 131 + b * 37 + i * 11 + tag * 7) % 251);
}

/// One write as its client saw it.
struct WriteSeen {
  std::uint64_t tag = 0;
  sim::Time issue = 0;
  sim::Time done = 0;
  bool acked = false;
};

/// A block may return write w only if no write acked to a client was
/// issued after w returned: w is the last acked write or concurrent with
/// it.  The seed data qualifies only while no write was acked.
inline bool readback_ok(const std::vector<WriteSeen>& writes,
                        const std::vector<std::uint8_t>& got, std::uint32_t f,
                        std::uint32_t b) {
  std::uint64_t tag = 0;
  std::memcpy(&tag, got.data(), sizeof tag);
  std::vector<std::uint8_t> want;
  fill_block(want, f, b, tag);
  if (want != got) return false;
  sim::Time last_acked_issue = 0;
  bool any_acked = false;
  for (const WriteSeen& w : writes) {
    if (!w.acked) continue;
    any_acked = true;
    last_acked_issue = std::max(last_acked_issue, w.issue);
  }
  if (tag == 0) return !any_acked;
  for (const WriteSeen& w : writes)
    if (w.tag == tag) return !any_acked || w.done >= last_acked_issue;
  return false;
}

}  // namespace bfly::bench
