#include "crowd/crowd.hpp"

#include <string>

#include "chrysalis/crew.hpp"

namespace bfly::crowd {

namespace {

struct Ctx {
  chrys::Kernel& k;
  std::uint32_t n;
  std::function<void(std::uint32_t)> fn;
  CrowdOptions opt;
  chrys::Crew crew;
};

void start_worker(Ctx& ctx, std::uint32_t w);

void worker_body(Ctx& ctx, std::uint32_t w) {
  // Create the subtree first, so creation proceeds in parallel...
  for (std::uint32_t c = ctx.opt.fanout * w + 1;
       c <= ctx.opt.fanout * w + ctx.opt.fanout && c < ctx.n; ++c)
    start_worker(ctx, c);
  // ...then do this worker's own share.
  ctx.fn(w);
}

void start_worker(Ctx& ctx, std::uint32_t w) {
  const sim::NodeId node =
      (ctx.opt.base_node + w) % ctx.k.machine().nodes();
  // A worker lost at start takes its subtree with it.
  ctx.crew.start(node, [&ctx, w] { worker_body(ctx, w); },
                 "crowd-" + std::to_string(w));
}

}  // namespace

sim::Time spread(chrys::Kernel& k, std::uint32_t n,
                 std::function<void(std::uint32_t)> fn, CrowdOptions opt) {
  if (n == 0) return 0;
  const sim::Time t0 = k.now();
  Ctx ctx{k, n, std::move(fn), opt, chrys::Crew(k)};
  start_worker(ctx, 0);
  ctx.crew.join();
  return k.now() - t0;
}

sim::Time spread_serial(chrys::Kernel& k, std::uint32_t n,
                        std::function<void(std::uint32_t)> fn,
                        CrowdOptions opt) {
  if (n == 0) return 0;
  const sim::Time t0 = k.now();
  chrys::Crew crew(k);
  for (std::uint32_t w = 0; w < n; ++w) {
    const sim::NodeId node = (opt.base_node + w) % k.machine().nodes();
    crew.start(node, [&fn, w] { fn(w); }, "serial-" + std::to_string(w));
  }
  crew.join();
  return k.now() - t0;
}

}  // namespace bfly::crowd
