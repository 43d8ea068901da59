// Scaffolding shared by the two serving benches (tserving, tpartition): the
// serving-class disk, the open-loop arrival gap, and the failure detector
// both run under.  Their client loops stay in each bench: they record
// different things.
#pragma once

#include <algorithm>
#include <cmath>

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

}  // namespace bfly::bench
