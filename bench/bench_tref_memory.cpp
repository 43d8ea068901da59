// T-REF — memory reference costs (Section 2.1).
//
// Paper: "remote memory references (reads) take about 4 us, roughly five
// times as long as a local reference"; remote references steal memory
// cycles from the home node; on the Butterfly Plus "local references have
// improved by a factor of four, while remote references have improved by
// only a factor of two" (making locality even MORE important).
//
// Gate: on the Butterfly-I a remote read costs exactly five local reads
// (compared in integer nanoseconds).

#include <cstdio>

#include "bench_common.hpp"
#include "sim/machine.hpp"

namespace {

struct RefCosts {
  double local_us, remote_us, atomic_us, block_per_word_us;
  bfly::sim::Time local_total, remote_total;  // kReps reads each
};

RefCosts measure(const bfly::sim::MachineConfig& cfg) {
  using namespace bfly::sim;
  Machine m(cfg);
  PhysAddr local = m.alloc(0, 4096);
  PhysAddr remote = m.alloc(cfg.nodes / 2, 4096);
  RefCosts out{};
  m.spawn(0, [&] {
    constexpr int kReps = 200;
    Time t0 = m.now();
    for (int i = 0; i < kReps; ++i) (void)m.read<std::uint32_t>(local);
    out.local_total = m.now() - t0;
    out.local_us = out.local_total / 1e3 / kReps;
    t0 = m.now();
    for (int i = 0; i < kReps; ++i) (void)m.read<std::uint32_t>(remote);
    out.remote_total = m.now() - t0;
    out.remote_us = out.remote_total / 1e3 / kReps;
    t0 = m.now();
    for (int i = 0; i < kReps; ++i) (void)m.fetch_add_u32(remote, 1);
    out.atomic_us = (m.now() - t0) / 1e3 / kReps;
    t0 = m.now();
    std::uint8_t buf[4096];
    for (int i = 0; i < 20; ++i) m.block_read(buf, remote, 4096);
    out.block_per_word_us = (m.now() - t0) / 1e3 / 20 / 1024;
  });
  m.run();
  return out;
}

}  // namespace

int main() {
  using namespace bfly;
  bench::Report report;
  bench::header("T-REF", "memory reference costs, Butterfly-I vs Butterfly Plus",
                "remote read ~4us, ~5x local; Plus: local 4x better, remote 2x");

  const RefCosts b1 = measure(sim::butterfly1(128));
  const RefCosts bp = measure(sim::butterfly_plus(128));
  report.gate(b1.remote_total == 5 * b1.local_total,
              "T-REF: Butterfly-I remote read must cost 5x a local read");

  std::printf("%-28s %14s %14s\n", "operation", "Butterfly-I", "B.Plus");
  std::printf("%-28s %12.2fus %12.2fus\n", "local 32-bit read", b1.local_us,
              bp.local_us);
  std::printf("%-28s %12.2fus %12.2fus\n", "remote 32-bit read", b1.remote_us,
              bp.remote_us);
  std::printf("%-28s %12.2fus %12.2fus\n", "remote atomic add", b1.atomic_us,
              bp.atomic_us);
  std::printf("%-28s %12.2fus %12.2fus\n", "block transfer (per word)",
              b1.block_per_word_us, bp.block_per_word_us);
  std::printf("\nratios: B-I remote/local = %.1f   Plus remote/local = %.1f\n",
              b1.remote_us / b1.local_us, bp.remote_us / bp.local_us);
  std::printf("improvement: local %.1fx, remote %.1fx "
              "(locality matters even more on the Plus)\n",
              b1.local_us / bp.local_us, b1.remote_us / bp.remote_us);

  // Cycle stealing: the home node's local references under remote load.
  for (int hammer : {0, 16, 48}) {
    sim::Machine m(sim::butterfly1(64));
    sim::PhysAddr mine = m.alloc(0, 64);
    sim::PhysAddr shared = m.alloc(0, 64);
    sim::Time t = 0;
    m.spawn(0, [&] {
      const sim::Time t0 = m.now();
      for (int i = 0; i < 300; ++i) (void)m.read<std::uint32_t>(mine);
      t = m.now() - t0;
    });
    for (int h = 1; h <= hammer; ++h)
      m.spawn(h, [&m, shared] {
        for (int i = 0; i < 200; ++i) (void)m.read<std::uint32_t>(shared);
      });
    m.run();
    std::printf("home node local read with %2d remote hammerers: %.2fus\n",
                hammer, t / 1e3 / 300);
  }
  return report.finish("");
}
