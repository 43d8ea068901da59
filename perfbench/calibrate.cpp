// Host-speed calibration.  A fixed job built only from this benchmark's own
// code and the C++ library, shaped like the simulator's hot path: ucontext
// switches, a (time, seq) event heap driving std::function callbacks that
// look records up in a hash map, and a pointer chase over more memory than
// the caches hold.  No change to src/ can make it faster or slower, so its
// time measures how fast the host is running at that moment.  README.md
// ("Host speed") explains how the end-to-end times use it.

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

ucontext_t g_main_ctx;
ucontext_t g_job_ctx;

void job_fiber() {
  for (;;) swapcontext(&g_job_ctx, &g_main_ctx);
}

/// The job's memory and its parked fiber, set up once so a chunk makes no
/// system calls besides the switches' signal-mask updates.
struct Arena {
  static constexpr std::size_t kStack = 64 * 1024;
  std::unique_ptr<char[]> stack{new char[kStack]};
  std::vector<std::uint32_t> next;  // one pseudo-random cycle over 16 MiB
  std::unordered_map<std::uint64_t, std::uint64_t> records;
  Arena() : next(4u << 20) {
    for (std::uint32_t i = 0; i < next.size(); ++i)
      next[i] = static_cast<std::uint32_t>((i * 2654435761ULL + 12345) %
                                           next.size());
    for (std::uint64_t r = 0; r < 4096; ++r)
      records[r * 0x9e3779b97f4a7c15ULL] = r;
    getcontext(&g_job_ctx);
    g_job_ctx.uc_stack.ss_sp = stack.get();
    g_job_ctx.uc_stack.ss_size = kStack;
    g_job_ctx.uc_link = nullptr;
    makecontext(&g_job_ctx, job_fiber, 0);
  }
};

std::uint64_t chunk(Arena& a) {
  std::uint64_t sink = 0;
  for (int i = 0; i < 4000; ++i) swapcontext(&g_main_ctx, &g_job_ctx);

  struct Ev {
    std::uint64_t t, seq;
    bool operator>(const Ev& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
  const std::function<void(std::uint64_t)> act = [&](std::uint64_t k) {
    sink += a.records.find((k % 4096) * 0x9e3779b97f4a7c15ULL)->second;
  };
  std::uint64_t x = 88172645463325252ULL, seq = 0;
  for (int i = 0; i < 1024; ++i) heap.push({x % 100000, seq++});
  for (int i = 0; i < 40000; ++i) {
    const Ev e = heap.top();
    heap.pop();
    act(e.t + e.seq);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push({e.t + x % 5000, seq++});
  }

  auto p = static_cast<std::uint32_t>(sink % a.next.size());
  for (int i = 0; i < 80000; ++i) p = a.next[p];
  return sink + p;
}

}  // namespace

double calibration_chunk_s() {
  static Arena arena;
  const auto t0 = Clock::now();
  volatile std::uint64_t keep = chunk(arena);
  (void)keep;
  return since(t0);
}

}  // namespace perfbench
