// serve::LatencyWindow keeps a sorted copy of its ring so the hedge
// quantile is an index.  Checked against the definition it replaced: copy
// the live window, std::sort it, take rank floor(q * (n - 1)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "serve/serve.hpp"
#include "sim/rng.hpp"

namespace bfly::serve {
namespace {

sim::Time oracle(const std::deque<sim::Time>& live, double q) {
  std::vector<sim::Time> v(live.begin(), live.end());
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

TEST(LatencyWindow, MatchesCopyAndSortOracle) {
  // Every sample is checked, so each size is covered while it holds fewer
  // than ServeConfig's default min_hedge_samples (8), while it fills, and
  // long after its ring wraps.
  const double qs[] = {0.0, 0.5, 0.9, 0.99, 1.0};
  for (const std::uint32_t size : {1u, 8u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      // Few distinct values: ties everywhere, so erase must remove exactly
      // one copy of the evicted value.
      sim::Rng rng(seed * 131 + size);
      LatencyWindow w(size);
      std::deque<sim::Time> live;
      for (int i = 0; i < 5 * static_cast<int>(size) + 50; ++i) {
        const sim::Time t = 1000 * (1 + rng.below(6));
        w.record(t);
        live.push_back(t);
        if (live.size() > size) live.pop_front();  // before and after a wrap
        ASSERT_EQ(w.count(), live.size()) << "size " << size << " i " << i;
        for (const double q : qs)
          ASSERT_EQ(w.quantile(q), oracle(live, q))
              << "size " << size << " seed " << seed << " i " << i
              << " q " << q;
      }
    }
  }
}

}  // namespace
}  // namespace bfly::serve
