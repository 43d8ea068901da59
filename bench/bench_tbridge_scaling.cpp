// T-BRIDGE — Bridge parallel file system scaling (Section 3.4).
//
// Paper: "Analytical and experimental studies indicate that Bridge will
// provide linear speedup on several dozen disks for a wide variety of
// file-based operations, including copying, sorting, searching, and
// comparing."
//
// Gate: copy speedup stays within 5% of linear through 32 disks.  One JSON
// row per disk count goes to BENCH_bridge.json in the working directory.

#include <cstdio>

#include "bench_common.hpp"
#include "bridge/bridge.hpp"
#include "sim/json.hpp"

namespace {

using namespace bfly;
using sim::Time;

struct OpTimes {
  Time copy = 0, search = 0, compare = 0, sort = 0;
};

OpTimes run(std::uint32_t disks, std::uint32_t file_blocks) {
  sim::MachineConfig mc = sim::butterfly1(128);
  mc.memory_per_node = 4u << 20;
  sim::Machine m(mc);
  chrys::Kernel k(m);
  OpTimes out;
  k.create_process(127, [&] {
    bridge::BridgeFs fs(k, disks);
    const bridge::FileId a = fs.create("a");
    const bridge::FileId b = fs.create("b");
    const bridge::FileId c = fs.create("c");
    std::vector<std::uint8_t> blk(bridge::kBlockSize);
    sim::Rng rng(7);
    for (std::uint32_t i = 0; i < file_blocks; ++i) {
      for (auto& byte : blk) byte = static_cast<std::uint8_t>(rng.next());
      fs.write_block(a, i, blk.data());
    }
    Time t0 = m.now();
    fs.tool_copy(a, b);
    out.copy = m.now() - t0;
    t0 = m.now();
    (void)fs.tool_search(a, 0x42);
    out.search = m.now() - t0;
    t0 = m.now();
    (void)fs.tool_compare(a, b);
    out.compare = m.now() - t0;
    t0 = m.now();
    fs.tool_sort(a, c);
    out.sort = m.now() - t0;
    fs.shutdown();
  });
  m.run();
  return out;
}

}  // namespace

int main() {
  bench::header("T-BRIDGE", "interleaved-file operations vs number of disks",
                "near-linear speedup on several dozen disks for copy / "
                "search / compare; sort gains but pays a serial merge tail");
  bench::Report report("tbridge", "BENCH_bridge.json");
  const std::uint32_t blocks = bench::fast_mode() ? 96 : 384;
  std::printf("file: %u blocks of %zu bytes\n\n", blocks, bridge::kBlockSize);
  std::printf("%6s %10s %10s %10s %10s | %8s %8s\n", "disks", "copy(s)",
              "search(s)", "compare(s)", "sort(s)", "cp-spd", "srch-spd");

  OpTimes base{};
  for (std::uint32_t d : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const OpTimes t = run(d, blocks);
    if (d == 1) base = t;
    std::printf("%6u %10.2f %10.2f %10.2f %10.2f | %7.1fx %7.1fx\n", d,
                bench::seconds(t.copy), bench::seconds(t.search),
                bench::seconds(t.compare), bench::seconds(t.sort),
                sim::ratio(base.copy, t.copy),
                sim::ratio(base.search, t.search));
    sim::json::Writer jw;
    jw.begin_object()
        .kv("bench", "tbridge")
        .kv("disks", d)
        .kv("blocks", blocks)
        .kv("copy_s", bench::seconds(t.copy))
        .kv("search_s", bench::seconds(t.search))
        .kv("compare_s", bench::seconds(t.compare))
        .kv("sort_s", bench::seconds(t.sort))
        .kv("copy_speedup", sim::ratio(base.copy, t.copy))
        .kv("search_speedup", sim::ratio(base.search, t.search))
        .kv("compare_speedup", sim::ratio(base.compare, t.compare))
        .kv("sort_speedup", sim::ratio(base.sort, t.sort))
        .end_object();
    report.row(jw.str());
    if (d <= 32)
      report.gate(sim::ratio(base.copy, t.copy) >= 0.95 * d,
                  "T-BRIDGE: copy speedup must be >= 0.95x disks through 32");
  }
  return report.finish("\nshape check: copy/search/compare speedups track "
                       "the disk count into the\ndozens; sort flattens as "
                       "the serial merge dominates (Amdahl again).\n");
}
