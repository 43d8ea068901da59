// FIG6 — "Graphical View of Odd-Even Merge Sort" (Section 4.2, Figure 6).
//
// Figure 6 of the paper is a Moviola rendering of DEADLOCK in an odd-even
// merge sort.  We reproduce the scenario: an odd-even transposition sort
// over SMP in which every exchange receives before it sends — the classic
// message-ordering bug — so the whole family blocks.  The bench prints the
// Moviola deadlock view (who is blocked on what), then the partial-order
// graph of a correct run of the same program for contrast, and gates the
// shape of all three: the buggy sort wedges every process, the ring's
// report names exactly the four-sorter cycle, and the correct run's
// partial order has its fixed size.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/sort.hpp"
#include "bench_common.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "replay/moviola.hpp"

int main() {
  using namespace bfly;
  bench::header("FIG6", "Moviola view of deadlock in odd-even merge sort",
                "receive-before-send bug blocks every process on its mailbox");
  bench::Report report;

  // --- The buggy run -------------------------------------------------------
  {
    sim::Machine m(sim::butterfly1(16));
    // Build the deadlocking sort directly so we can interrogate the kernel.
    apps::SortConfig cfg;
    cfg.n = 256;
    cfg.processors = 8;
    cfg.inject_deadlock = true;
    apps::SortResult r;
    {
      // odd_even_sort creates its own kernel; re-run it here and show the
      // machine state it leaves behind.
      r = apps::odd_even_sort(m, cfg);
    }
    std::printf("buggy sort (8 processes, receive-before-send):\n");
    std::printf("  machine deadlocked: %s\n", r.deadlocked ? "YES" : "no");
    // Every fiber left is stuck: the 8 sorters and the creator joining them.
    std::printf("  blocked fibers: %zu\n\n", m.live_fibers());
    report.gate(r.deadlocked && m.live_fibers() == 9,
                "the buggy sort must deadlock with 9 live fibers (8 sorters "
                "and the creator)");
  }
  // Use a kernel we still hold to print the full Moviola report.
  {
    sim::Machine m(sim::butterfly1(16));
    chrys::Kernel k(m);
    moviola::Detector detector(m, &k);
    // Minimal in-place reconstruction: 4 processes in a ring, one exchange
    // per round.
    std::vector<chrys::Oid> boxes(4);
    k.create_process(0, [&] {
      for (auto& b : boxes) {
        b = k.make_dual_queue();
        k.give_to_system(b);  // must outlive the creator
      }
      for (std::uint32_t w = 0; w < 4; ++w) {
        k.create_process(w % m.nodes(), [&k, &boxes, w] {
          // Round 1 is correct: send, then receive.  It shows the detector
          // who feeds each mailbox.
          k.dq_enqueue(boxes[(w + 1) % 4], w);
          (void)k.dq_dequeue(boxes[w]);
          // Round 2 has the bug: everyone receives first; the sends below
          // are never reached.
          const std::uint32_t v = k.dq_dequeue(boxes[w]);
          k.dq_enqueue(boxes[(w + 1) % 4], v);
        }, "sorter-" + std::to_string(w));
      }
    });
    m.run();
    const auto findings = detector.analyze();
    std::printf("Moviola deadlock view of the wait cycle:\n%s\n",
                detector.report().c_str());
    report.gate(findings.size() == 1 &&
                    findings[0].kind == moviola::StuckKind::kDeadlock &&
                    findings[0].members ==
                        std::vector<std::string>{"sorter-0", "sorter-1",
                                                 "sorter-2", "sorter-3"},
                "the ring must give exactly one finding: a deadlock of "
                "sorter-0..3");
  }

  // --- A correct run, with its event partial order -------------------------
  {
    sim::Machine m(sim::butterfly1(16));
    chrys::Kernel k(m);
    replay::Monitor mon(k, 4);
    mon.set_mode(replay::Mode::kRecord);
    // Each exchange is one shared object; partners write it in turn.
    std::vector<std::uint32_t> objs;
    for (int i = 0; i < 3; ++i)
      objs.push_back(mon.register_object(i % m.nodes(),
                                         "exch" + std::to_string(i)));
    for (std::uint32_t w = 0; w < 4; ++w) {
      k.create_process(w, [&, w] {
        for (std::uint32_t phase = 0; phase < 3; ++phase) {
          const bool lower = (phase % 2 == 0) == (w % 2 == 0);
          const std::uint32_t partner = lower ? w + 1 : w - 1;
          if (partner >= 4) continue;
          const std::uint32_t obj = objs[std::min(w, partner) % 3];
          mon.begin_write(w, obj);
          m.charge(sim::kMillisecond);
          mon.end_write(w, obj);
        }
      });
    }
    m.run();
    replay::Log log = mon.take_log();
    replay::Moviola mv(log);
    std::printf("correct run: %zu events, %zu cross-process dependences, "
                "critical path %u\n",
                mv.events().size(), mv.cross_actor_edges(),
                mv.critical_path());
    std::printf("\npartial-order graph (Graphviz):\n%s", mv.to_dot().c_str());
    report.gate(mv.events().size() == 10 && mv.cross_actor_edges() == 7 &&
                    mv.critical_path() == 5,
                "the correct run must have 10 events, 7 cross-process "
                "dependences and critical path 5");
  }
  return report.finish("");
}
