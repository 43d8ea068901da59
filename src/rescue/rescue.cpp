#include "rescue/rescue.hpp"

namespace bfly::rescue {

Membership::Membership(chrys::Kernel& k, RescueConfig cfg)
    : k_(k), m_(k.machine()), cfg_(cfg) {
  if (cfg_.monitor_node >= m_.nodes())
    throw sim::SimError("Membership: monitor_node out of range");
  if (cfg_.suspect_after <= cfg_.heartbeat_period)
    throw sim::SimError(
        "Membership: suspect_after must exceed heartbeat_period or healthy "
        "nodes get suspected");
  const std::uint32_t n = m_.nodes();
  member_.assign(n, 1);
  unreachable_.assign(n, 0);
  daemon_up_.assign(n, 0);
  members_alive_ = n;
  last_seq_.assign(n, 0);
  last_move_.assign(n, 0);
  // One 8-byte heartbeat word per node, plus the published epoch cell, all
  // in the monitor node's memory.
  hb_base_ = m_.alloc(cfg_.monitor_node, static_cast<std::size_t>(n) * 8);
  epoch_cell_ = m_.alloc(cfg_.monitor_node, 8);
}

void Membership::start() {
  if (started_) return;
  started_ = true;
  const std::uint32_t nodes = m_.nodes();
  for (sim::NodeId n = 0; n < nodes; ++n) {
    try {
      k_.create_process(n, [this, n] { daemon_loop(n); },
                        "hb-" + std::to_string(n));
    } catch (const chrys::ThrowSignal& t) {
      // The node was dead before the service came up, or died while its
      // daemon was being built (creation charges real time, and kills land
      // mid-charge).  No heartbeat will ever come, so the watchdog
      // declares it after suspect_after — no special case.
      if (t.code == chrys::kThrowNodeDead) continue;
      // Starting mid-cut: the daemon template cannot be shipped across an
      // active partition.  Skip the node rather than aborting the whole
      // service — the watchdog will park it as suspected_unreachable.  It
      // has no daemon, so after the heal it shows up as a (repeating)
      // false suspicion instead of graduating back; restart the service to
      // reinstall daemons if membership is brought up mid-partition.
      if (t.code == chrys::kThrowNetUnreachable) continue;
      throw;
    }
    // Process creation is expensive (a serialized pass over the global
    // template): across a whole machine this loop holds the caller's CPU
    // for tens of milliseconds.  Yield so an already-created daemon on this
    // node can get its first heartbeat out before its grace expires.
    k_.yield();
  }
  // The scan starts counting staleness from now, so nodes get a full
  // suspect_after to produce their first heartbeat.
  for (sim::NodeId n = 0; n < nodes; ++n) last_move_[n] = m_.now();
  k_.create_process(cfg_.monitor_node, [this] { watchdog_loop(); },
                    "hb-watchdog");
}

void Membership::stop() {
  stopping_ = true;
  if (!started_) return;
  // Join the daemons: each one holds a pointer to this object (and the
  // fibers themselves may outlive the caller's stack frame), so returning
  // while any can still wake is a use-after-free waiting for a scheduler
  // slot.  A daemon sleeps at most one period before it sees the flag; a
  // daemon on a killed node never wakes and must not be waited for.  The
  // iteration bound turns a join regression into a loud test failure
  // (leaked daemon) instead of a hang.
  for (int i = 0; i < 1000; ++i) {
    bool busy = watchdog_up_ && m_.node_alive(cfg_.monitor_node);
    for (sim::NodeId n = 0; n < m_.nodes() && !busy; ++n)
      busy = daemon_up_[n] != 0 && m_.node_alive(n);
    if (!busy) return;
    k_.delay(cfg_.heartbeat_period);
  }
}

void Membership::daemon_loop(sim::NodeId n) {
  daemon_up_[n] = 1;
  // Stagger the daemons across the period so the monitor's memory is not
  // hit by every node in the same simulated instant.
  const sim::Time phase =
      cfg_.heartbeat_period * n / std::max<std::uint32_t>(1, m_.nodes());
  if (phase > 0) k_.delay(phase);
  std::uint32_t seq = 0;
  while (!stopping_) {
    ++seq;
    m_.trace_instant("rescue", "heartbeat", seq);
    try {
      // A remote write across the switch, charged like any application
      // reference — heartbeat traffic costs simulated time.
      m_.write<std::uint32_t>(hb_base_.plus(n * 8), seq);
    } catch (const sim::NodeDeadError&) {
      break;  // the monitor is gone; nobody is listening
    } catch (const sim::NetUnreachableError&) {
      // Partitioned away from the monitor: keep trying.  Each failed
      // attempt was charged (retries plus backoff), and the first write
      // that lands after the heal is what graduates this node from
      // suspected_unreachable back to a full member.
    } catch (const sim::MemoryFaultError&) {
      // A dropped heartbeat is harmless — the next one supersedes it.
    }
    k_.delay(cfg_.heartbeat_period);
  }
  daemon_up_[n] = 0;
}

void Membership::watchdog_loop() {
  watchdog_up_ = true;
  while (!stopping_) {
    k_.delay(cfg_.heartbeat_period);
    if (stopping_) break;
    for (sim::NodeId n = 0; n < m_.nodes(); ++n) {
      if (!member_[n]) continue;
      // Local charged read of the node's heartbeat word.
      const auto seq = m_.read<std::uint32_t>(hb_base_.plus(n * 8));
      if (seq != last_seq_[n]) {
        last_seq_[n] = seq;
        last_move_[n] = m_.now();
        // A heartbeat from a suspected_unreachable node means the path
        // healed: restore it (with an epoch bump, fencing stale views).
        if (unreachable_[n]) mark_restored(n);
        continue;
      }
      if (m_.now() - last_move_[n] <= cfg_.suspect_after) continue;
      // Stale.  Check the accusation against ground truth: the detector
      // may be wrong, and a false suspicion must never evict the living.
      // An alive-but-unreachable node is neither a false suspicion nor a
      // death: the detector was *right* that heartbeats stopped, but the
      // fault is in the switch, not the node — park it in
      // suspected_unreachable instead of excising it.
      if (m_.node_alive(n)) {
        if (m_.reachable(cfg_.monitor_node, n)) {
          // A flagged node whose path just healed is *expected* to be stale
          // until its next heartbeat lands — give it a fresh grace period
          // without booking a false suspicion; the restore happens when the
          // sequence moves.
          if (!unreachable_[n]) {
            ++m_.stats().false_suspects;
            m_.trace_instant("rescue", "false_suspect", n);
          }
          last_move_[n] = m_.now();
        } else if (!unreachable_[n]) {
          mark_unreachable(n);
        }
        continue;
      }
      declare_suspect(n);
    }
  }
  watchdog_up_ = false;
}

void Membership::denounce(sim::NodeId n) {
  if (n >= member_.size() || !member_[n]) return;
  if (m_.node_alive(n)) {
    if (m_.reachable(cfg_.monitor_node, n)) {
      ++m_.stats().false_suspects;
      m_.trace_instant("rescue", "false_suspect", n);
    } else if (!unreachable_[n]) {
      mark_unreachable(n);
    }
    return;
  }
  declare_suspect(n);
}

void Membership::declare_suspect(sim::NodeId n) {
  if (!member_[n]) return;
  m_.trace_instant("rescue", "suspect", n);
  member_[n] = 0;
  if (unreachable_[n]) {
    // Died while partitioned away: it is a corpse now, not a suspect.
    unreachable_[n] = 0;
    --members_unreachable_;
  }
  --members_alive_;
  ++epoch_;
  ++m_.stats().suspects_declared;
  history_.push_back(Suspicion{n, m_.now(), epoch_});
  // Publish the new view before the broadcast, so a crash observer whose
  // layer polls epoch_cell() from a task sees a consistent picture.  The
  // crash observers run here, in the watchdog's (or the denouncer's)
  // process context.
  publish_epoch();
  m_.broadcast_crash(n);
}

void Membership::mark_unreachable(sim::NodeId n) {
  m_.trace_instant("rescue", "unreachable", n);
  unreachable_[n] = 1;
  ++members_unreachable_;
  ++epoch_;  // fence: decisions made under the old view are refusable
  ++m_.stats().suspects_unreachable;
  publish_epoch();
}

void Membership::mark_restored(sim::NodeId n) {
  m_.trace_instant("rescue", "restored", n);
  unreachable_[n] = 0;
  --members_unreachable_;
  // The epoch bump on restore is the fence in the other direction: the
  // healed minority re-learns the view before anyone honors its acks.
  ++epoch_;
  ++m_.stats().unreachable_restored;
  publish_epoch();
}

void Membership::publish_epoch() {
  m_.write<std::uint32_t>(epoch_cell_, static_cast<std::uint32_t>(epoch_));
}

sim::Time Membership::suspected_at(sim::NodeId n) const {
  for (const auto& s : history_)
    if (s.node == n) return s.at;
  return 0;
}

}  // namespace bfly::rescue
