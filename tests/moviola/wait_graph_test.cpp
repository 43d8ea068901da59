// The three staged pathologies from the issue, each of which the detector
// must name exactly — the cycle members for a true deadlock, the waiter
// for a lost wakeup, the spinner (and holder) for starvation — plus the
// Kernel::blocked_processes() snapshot cross-check and the
// blocking-discipline lints.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "chrysalis/kernel.hpp"
#include "chrysalis/spinlock.hpp"
#include "moviola/wait_graph.hpp"

namespace bfly::moviola {
namespace {

using chrys::Kernel;
using chrys::kNoObject;
using chrys::Oid;
using chrys::SpinLock;
using sim::butterfly1;
using sim::Machine;

// --- Fixture 1: three-process event cycle -----------------------------------
//
// Three processes, each owning one event.  Round 1 posts before waiting
// (completes, and teaches the detector who feeds whom); round 2 waits
// before posting — the classic ring deadlock a/b/c.
TEST(Deadlock, ThreeProcessEventCycleNamesExactMembers) {
  Machine m(butterfly1(4));
  Kernel k(m);
  Detector d(m, &k);

  Oid ea = kNoObject, eb = kNoObject, ec = kNoObject;
  auto ring = [&](Oid* mine, Oid* feeds) {
    return [&, mine, feeds] {
      *mine = k.make_event();
      k.delay(10 * sim::kMillisecond);  // let all three events exist
      // Round 1: post first, then wait — completes, records history.
      k.event_post(*feeds, 1);
      (void)k.event_wait(*mine);
      // Round 2: wait first — nobody ever posts again.
      (void)k.event_wait(*mine);
      k.event_post(*feeds, 2);  // never reached
    };
  };
  // Poster history: b feeds ea, c feeds eb, a feeds ec.
  const Oid pa = k.create_process(0, ring(&ea, &ec), "a");
  const Oid pb = k.create_process(1, ring(&eb, &ea), "b");
  const Oid pc = k.create_process(2, ring(&ec, &eb), "c");

  m.run();
  ASSERT_TRUE(m.deadlocked());
  EXPECT_EQ(d.blocked_now(), 3u);

  const auto findings = d.analyze();
  ASSERT_EQ(findings.size(), 1u) << d.report();
  const StuckReport& r = findings[0];
  EXPECT_EQ(r.kind, StuckKind::kDeadlock);
  EXPECT_EQ(r.members, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(r.processes, (std::vector<std::uint32_t>{pa, pb, pc}));
  EXPECT_EQ(r.channels,
            (std::vector<std::uint64_t>{sim::chan_of_oid(ea),
                                        sim::chan_of_oid(eb),
                                        sim::chan_of_oid(ec)}));
  EXPECT_NE(r.detail.find("deadlock"), std::string::npos);
}

// Kernel::blocked_processes() must agree with the wait-for graph during a
// staged deadlock: same processes, same objects waited on.
TEST(Deadlock, BlockedProcessesSnapshotMatchesWaitGraph) {
  Machine m(butterfly1(4));
  Kernel k(m);
  Detector d(m, &k);

  Oid ea = kNoObject, eb = kNoObject;
  k.create_process(0, [&] {
    ea = k.make_event();
    k.delay(5 * sim::kMillisecond);
    k.event_post(eb, 1);
    (void)k.event_wait(ea);
    (void)k.event_wait(ea);  // deadlocks: b is also stuck
  }, "x");
  k.create_process(1, [&] {
    eb = k.make_event();
    k.delay(5 * sim::kMillisecond);
    k.event_post(ea, 1);
    (void)k.event_wait(eb);
    (void)k.event_wait(eb);
  }, "y");

  m.run();
  ASSERT_TRUE(m.deadlocked());

  const auto findings = d.analyze();
  ASSERT_EQ(findings.size(), 1u) << d.report();
  ASSERT_EQ(findings[0].kind, StuckKind::kDeadlock);

  const auto snap = k.blocked_processes();
  ASSERT_EQ(snap.size(), findings[0].members.size());
  for (std::size_t i = 0; i < findings[0].members.size(); ++i) {
    const auto it = std::find_if(
        snap.begin(), snap.end(), [&](const Kernel::BlockedInfo& b) {
          return b.name == findings[0].members[i];
        });
    ASSERT_NE(it, snap.end()) << findings[0].members[i];
    EXPECT_EQ(it->process, findings[0].processes[i]);
    EXPECT_EQ(sim::chan_of_oid(it->waiting_on), findings[0].channels[i]);
  }
}

// blocked_processes() on a healthy (finished) run is empty, and while a
// process is blocked mid-run it reports exactly that process.
TEST(BlockedProcesses, EmptyAfterCleanRunAndExactMidRun) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Oid ev = kNoObject;
  std::size_t mid_count = 0;
  std::string mid_name;
  Oid mid_waiting = kNoObject;
  k.create_process(0, [&] {
    ev = k.make_event();
    (void)k.event_wait(ev);
  }, "sleeper");
  k.create_process(1, [&] {
    k.delay(5 * sim::kMillisecond);
    const auto snap = k.blocked_processes();
    mid_count = snap.size();
    if (!snap.empty()) {
      mid_name = snap[0].name;
      mid_waiting = snap[0].waiting_on;
    }
    k.event_post(ev, 1);
  }, "poster");
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(mid_count, 1u);
  EXPECT_EQ(mid_name, "sleeper");
  EXPECT_EQ(mid_waiting, ev);
  EXPECT_TRUE(k.blocked_processes().empty());
}

// --- Fixture 2: lost wakeup --------------------------------------------------
//
// Two posts race ahead of the wait: the second overwrites the first
// (binary-semaphore semantics), so the waiter's second wait blocks on a
// wakeup that existed and was destroyed.
TEST(LostWakeup, OverwrittenPostBeforeWaitNamesTheWaiter) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);

  Oid ev = kNoObject;
  k.create_process(0, [&] {
    ev = k.make_event();
    k.delay(10 * sim::kMillisecond);
    (void)k.event_wait(ev);  // consumes the surviving datum
    (void)k.event_wait(ev);  // blocks forever: the other wakeup was lost
  }, "waiter");
  k.create_process(1, [&] {
    k.delay(2 * sim::kMillisecond);
    k.event_post(ev, 1);
    k.event_post(ev, 2);  // overwrites: wakeup #1 destroyed
  }, "poster");

  m.run();
  ASSERT_TRUE(m.deadlocked());
  EXPECT_EQ(d.overwrites(sim::chan_of_oid(ev)), 1u);

  const auto findings = d.analyze();
  ASSERT_EQ(findings.size(), 1u) << d.report();
  EXPECT_EQ(findings[0].kind, StuckKind::kLostWakeup);
  EXPECT_EQ(findings[0].members, (std::vector<std::string>{"waiter"}));
  EXPECT_EQ(findings[0].channels,
            (std::vector<std::uint64_t>{sim::chan_of_oid(ev)}));
}

// A waiter whose poster simply never showed up (no overwrite, no cycle) is
// an orphan wait, not a deadlock — the classification must not lump them.
TEST(OrphanWait, NoPosterIsNotADeadlock) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);
  k.create_process(0, [&] {
    const Oid ev = k.make_event();
    (void)k.event_wait(ev);
  }, "lonely");
  m.run();
  ASSERT_TRUE(m.deadlocked());
  const auto findings = d.analyze();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, StuckKind::kOrphanWait);
  EXPECT_EQ(findings[0].members, (std::vector<std::string>{"lonely"}));
}

// Raw Machine fibers have no name: the detector calls them by spawn order,
// so the same program reports the same text in every machine, whatever
// addresses the host gave its fibers.
struct UnnamedCycle {
  Machine m{butterfly1(2)};
  Detector d{m};
  std::string run() {
    const std::uint64_t ca = sim::chan_of_oid(1), cb = sim::chan_of_oid(2);
    auto half = [&](std::uint64_t mine, std::uint64_t other) {
      return [&, mine, other] {
        m.observe_post(other, sim::PostOutcome::kQueued);
        m.charge(sim::kMillisecond);  // both posts land before either waits
        m.observe_block(mine, sim::WaitKind::kEvent);
        m.park();
      };
    };
    m.spawn(0, half(ca, cb));
    m.spawn(1, half(cb, ca));
    m.run();
    EXPECT_TRUE(m.deadlocked());
    (void)d.analyze();
    return d.report();
  }
};

TEST(Deadlock, UnnamedFibersAreNamedBySpawnOrderNotAddress) {
  // Both machines stay alive, so their fibers cannot share addresses.
  UnnamedCycle first, second;
  const std::string a = first.run(), b = second.run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("deadlock: fiber#0 waits event#1; fiber#1 waits event#2;"),
            std::string::npos)
      << a;
}

// Poster history is kept by spawn index, so a finished poster's history
// does not pass to a later fiber the host allocator gave the same
// address: a posts dq#100 and exits, b takes a's address and waits on
// dq#101, which x fed, and x waits on dq#100.  b never fed dq#100, so
// there is no cycle.
TEST(Deadlock, FinishedPosterAddressReuseDrawsNoEdge) {
  Machine m(butterfly1(2));
  Detector d(m);
  const std::uint64_t q100 = sim::chan_of_oid(100);
  const std::uint64_t q101 = sim::chan_of_oid(101);
  [[maybe_unused]] sim::Fiber* a = m.spawn(
      0, [&] { m.observe_post(q100, sim::PostOutcome::kQueued); }, "a");
  m.run();
  [[maybe_unused]] sim::Fiber* b = m.spawn(0, [&] {
    m.observe_block(q101, sim::WaitKind::kDualQueue);
    m.park();
  }, "b");
  m.spawn(1, [&] {
    m.observe_post(q101, sim::PostOutcome::kQueued);
    m.charge(sim::kMillisecond);
    m.observe_block(q100, sim::WaitKind::kDualQueue);
    m.park();
  }, "x");
  m.run();
#if !defined(__SANITIZE_ADDRESS__)  // ASan quarantines freed memory
  EXPECT_EQ(b, a);
#endif
  ASSERT_TRUE(m.deadlocked());
  EXPECT_EQ(d.blocked_now(), 2u);
  const auto findings = d.analyze();
  EXPECT_EQ(findings.size(), 2u) << d.report();
  for (const StuckReport& r : findings)
    EXPECT_EQ(r.kind, StuckKind::kOrphanWait) << d.report();
}

// The Figure 6 view: report() names the blocked process and the dual queue
// it waits on.
TEST(Moviola, DeadlockReportNamesTheWaiters) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);
  Oid dq = kNoObject;
  k.create_process(0, [&] {
    dq = k.make_dual_queue();
    (void)k.dq_dequeue(dq);  // nobody will ever post
  }, "reader");
  m.run();
  ASSERT_TRUE(m.deadlocked());
  d.analyze();
  const std::string report = d.report();
  EXPECT_NE(report.find("reader"), std::string::npos) << report;
  EXPECT_NE(report.find("dq#" + std::to_string(dq)), std::string::npos)
      << report;
}

// --- Fixture 3: spin-under-SpinLock starvation -------------------------------
//
// The hog takes the lock and then blocks in the kernel (the
// blocking-discipline lint), so the spinner probes forever: runnable,
// never blocked, starved.  The run is cut by an engine stop because a
// spinner keeps the event heap alive indefinitely.
TEST(Starvation, SpinnerUnderHeldLockNamesSpinnerAndHolder) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);

  const sim::PhysAddr cell = m.alloc(0, 8);
  k.create_process(0, [&] {
    SpinLock lock(m, cell);
    lock.acquire();
    const Oid ev = k.make_event();
    (void)k.event_wait(ev);  // blocks holding the lock; nobody posts
  }, "hog");
  k.create_process(1, [&] {
    k.delay(sim::kMillisecond);  // let the hog take the lock
    SpinLock lock(m, cell, sim::kMicrosecond);
    lock.acquire();  // spins forever
  }, "spinner");
  m.engine().post_at(50 * sim::kMillisecond, [&m] { m.engine().stop(); });

  m.run();
  const auto findings = d.analyze();

  const auto starved = std::find_if(
      findings.begin(), findings.end(),
      [](const StuckReport& r) { return r.kind == StuckKind::kStarvation; });
  ASSERT_NE(starved, findings.end()) << d.report();
  EXPECT_EQ(starved->members, (std::vector<std::string>{"spinner"}));
  EXPECT_EQ(starved->channels,
            (std::vector<std::uint64_t>{sim::chan_of(cell)}));
  EXPECT_NE(starved->detail.find("held by hog"), std::string::npos)
      << starved->detail;

  // The hog's kernel block while holding the spin lock is exactly the
  // blocking-discipline violation the lint exists for.
  const auto& lints = d.lints();
  ASSERT_FALSE(lints.empty());
  EXPECT_EQ(lints[0].kind, LintReport::Kind::kBlockUnderLock);
  EXPECT_EQ(lints[0].actor, "hog");
}

// --- Lints: charged work inside an uncharged hook ----------------------------

class ChargingObserver final : public sim::Probe {
 public:
  explicit ChargingObserver(Machine& m) : m_(m) { m_.attach(this); }
  ~ChargingObserver() override { m_.detach(this); }
  void on_release(sim::Fiber* f, std::uint64_t) override {
    // Violates the hooks' host-side contract: charges simulated time from
    // inside a probe callback.
    if (f != nullptr) m_.charge(100);
  }

 private:
  Machine& m_;
};

TEST(Lint, ChargedWorkInsideHookIsReported) {
  Machine m(butterfly1(1));
  Kernel k(m);
  Detector d(m, &k);
  ChargingObserver evil(m);
  k.create_process(0, [&] {
    const Oid ev = k.make_event();
    k.event_post(ev, 1);  // observe_release -> evil charges
    (void)k.event_wait(ev);
  }, "p");
  m.run();
  EXPECT_GT(m.hook_charges(), 0u);
  (void)d.analyze();
  const auto& lints = d.lints();
  ASSERT_FALSE(lints.empty());
  EXPECT_EQ(lints.back().kind, LintReport::Kind::kChargedHook);
}

TEST(Lint, CleanHooksReportNothing) {
  Machine m(butterfly1(1));
  Kernel k(m);
  Detector d(m, &k);
  k.create_process(0, [&] {
    const Oid ev = k.make_event();
    k.event_post(ev, 1);
    (void)k.event_wait(ev);
  }, "p");
  m.run();
  EXPECT_EQ(m.hook_charges(), 0u);
  EXPECT_TRUE(d.analyze().empty());
  EXPECT_TRUE(d.lints().empty());
}

// --- Watchdog ----------------------------------------------------------------

// A deadlocked pair under a heap kept alive by unrelated timers: run()
// would only return when the timers drain, but the watchdog spots the
// quiescent fiber set mid-run, captures the analysis, and disarms.
TEST(Watchdog, FiresOnQuiescenceUnderPendingTimers) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);

  Oid ea = kNoObject, eb = kNoObject;
  k.create_process(0, [&] {
    ea = k.make_event();
    k.delay(2 * sim::kMillisecond);
    k.event_post(eb, 1);
    (void)k.event_wait(ea);
    (void)k.event_wait(ea);  // deadlock
  }, "x");
  k.create_process(1, [&] {
    eb = k.make_event();
    k.delay(2 * sim::kMillisecond);
    k.event_post(ea, 1);
    (void)k.event_wait(eb);
    (void)k.event_wait(eb);
  }, "y");

  // Unrelated periodic work that keeps the event heap non-empty long past
  // the deadlock (posted up front; each is a no-op closure).
  for (int i = 1; i <= 40; ++i)
    m.engine().post_at(i * sim::kMillisecond, [] {});

  d.arm_watchdog(2 * sim::kMillisecond);
  m.run();

  EXPECT_TRUE(d.fired());
  ASSERT_EQ(d.findings().size(), 1u) << d.report();
  EXPECT_EQ(d.findings()[0].kind, StuckKind::kDeadlock);
  EXPECT_EQ(d.findings()[0].members, (std::vector<std::string>{"x", "y"}));
}

// A fiber that dies blocked (its node is killed mid-wait, and the
// kill-unwind skips the wake hook) stops counting as blocked, so the
// watchdog still sees the survivors' deadlock.  The poll stops the run
// once the watchdog fires, or at 1 s if it never does.
TEST(Watchdog, FiresAfterAFiberDiedBlocked) {
  Machine m(butterfly1(4));
  Kernel k(m);
  Detector d(m, &k);

  k.create_process(2, [&] {
    const Oid ev = k.make_event();
    (void)k.event_wait(ev);  // dies here with its node at 5 ms
  }, "victim");
  m.kill_node(2, 5 * sim::kMillisecond);

  Oid ea = kNoObject, eb = kNoObject;
  k.create_process(0, [&] {
    ea = k.make_event();
    k.delay(10 * sim::kMillisecond);
    k.event_post(eb, 1);
    (void)k.event_wait(ea);
    (void)k.event_wait(ea);  // deadlock
  }, "x");
  k.create_process(1, [&] {
    eb = k.make_event();
    k.delay(10 * sim::kMillisecond);
    k.event_post(ea, 1);
    (void)k.event_wait(eb);
    (void)k.event_wait(eb);
  }, "y");

  std::function<void()> poll = [&] {
    if (d.fired() || m.now() >= sim::kSecond) {
      m.engine().stop();
      return;
    }
    m.engine().post_in(sim::kMillisecond, poll);
  };
  m.engine().post_in(sim::kMillisecond, poll);
  d.arm_watchdog(2 * sim::kMillisecond);
  m.run();

  EXPECT_TRUE(d.fired());
  ASSERT_EQ(d.findings().size(), 1u) << d.report();
  EXPECT_EQ(d.findings()[0].kind, StuckKind::kDeadlock);
  EXPECT_EQ(d.findings()[0].members, (std::vector<std::string>{"x", "y"}));
  EXPECT_LT(m.now(), sim::kSecond);
}

TEST(Watchdog, StaysQuietOnAHealthyRun) {
  Machine m(butterfly1(2));
  Kernel k(m);
  Detector d(m, &k);
  Oid ev = kNoObject;
  k.create_process(0, [&] {
    ev = k.make_event();
    (void)k.event_wait(ev);
  }, "w");
  k.create_process(1, [&] {
    k.delay(20 * sim::kMillisecond);  // longer than the watchdog period
    k.event_post(ev, 1);
  }, "p");
  d.arm_watchdog(1 * sim::kMillisecond);
  m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_FALSE(d.fired());
  EXPECT_TRUE(d.findings().empty());
}

}  // namespace
}  // namespace bfly::moviola
