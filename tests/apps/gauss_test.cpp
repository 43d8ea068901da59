#include "apps/gauss.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "sim/rng.hpp"

namespace bfly::apps {
namespace {

using sim::butterfly1;
using sim::Machine;

TEST(GaussReference, SolvesTheSystem) {
  const std::uint32_t n = 24;
  std::vector<double> a, b;
  generate_system(n, 7, a, b);
  const std::vector<double> x = gauss_reference(n, 7);
  // Verify A x = b directly.
  for (std::uint32_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::uint32_t j = 0; j < n; ++j)
      s += a[static_cast<std::size_t>(i) * n + j] * x[j];
    EXPECT_NEAR(s, b[i], 1e-8);
  }
}

TEST(GaussRowUpdate, BitIdenticalToTheScalarLoop) {
  // Short lengths (the vector body, the odd tail, both and neither), a
  // FIG5-sized row, and start offsets that leave dst and src off 16-byte
  // alignment, together and apart.
  sim::Rng rng(5);
  std::vector<double> src(400), dst(400);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = rng.uniform() * 200 - 100;
    dst[i] = rng.uniform() * 200 - 100;
  }
  const std::vector<std::size_t> lens = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 385};
  for (double f : {0.0, 0.3125, -0.7, -3.9e4, 1.7e300})
    for (std::size_t doff : {0, 1})
      for (std::size_t soff : {0, 1})
        for (std::size_t len : lens) {
          std::vector<double> want = dst, got = dst;
          for (std::size_t j = 0; j < len; ++j)
            want[doff + j] -= f * src[soff + j];
          row_update(got.data() + doff, src.data() + soff, f, len);
          EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * 8), 0)
              << "f=" << f << " doff=" << doff << " soff=" << soff
              << " len=" << len;
        }
}

TEST(GaussUs, MatchesReference) {
  Machine m(butterfly1(16));
  GaussConfig cfg;
  cfg.n = 32;
  GaussResult r = gauss_us(m, cfg);
  EXPECT_EQ(r.solution, gauss_reference(cfg.n, cfg.seed));
  EXPECT_GT(r.elapsed, 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(GaussSmp, MatchesReference) {
  Machine m(butterfly1(16));
  GaussConfig cfg;
  cfg.n = 32;
  GaussResult r = gauss_smp(m, cfg);
  EXPECT_EQ(r.solution, gauss_reference(cfg.n, cfg.seed));
  EXPECT_GT(r.messages, 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(GaussSmp, SingleProcessorWorks) {
  Machine m(butterfly1(4));
  GaussConfig cfg;
  cfg.n = 16;
  cfg.processors = 1;
  GaussResult r = gauss_smp(m, cfg);
  EXPECT_EQ(r.solution, gauss_reference(cfg.n, cfg.seed));
  EXPECT_EQ(r.messages, 0u);
}

TEST(GaussUs, SingleProcessorWorks) {
  Machine m(butterfly1(4));
  GaussConfig cfg;
  cfg.n = 16;
  cfg.processors = 1;
  GaussResult r = gauss_us(m, cfg);
  EXPECT_EQ(r.solution, gauss_reference(cfg.n, cfg.seed));
}

TEST(GaussSmp, MessageVolumeIsPTimesN) {
  Machine m(butterfly1(8));
  GaussConfig cfg;
  cfg.n = 40;
  cfg.processors = 8;
  GaussResult r = gauss_smp(m, cfg);
  // Broadcast: (P-1) per pivot over N-1 pivots, plus (N - ceil(N/P)) gather
  // messages.  The paper rounds this to P*N.
  const std::uint64_t broadcast = static_cast<std::uint64_t>(cfg.n - 1) * 7;
  EXPECT_GE(r.messages, broadcast);
  EXPECT_LE(r.messages, broadcast + cfg.n);
}

TEST(GaussUs, MoreProcessorsIsFasterAtThisScale) {
  GaussConfig cfg;
  cfg.n = 48;
  cfg.processors = 2;
  Machine m2(butterfly1(32));
  const auto t2 = gauss_us(m2, cfg).elapsed;
  cfg.processors = 16;
  Machine m16(butterfly1(32));
  const auto t16 = gauss_us(m16, cfg).elapsed;
  EXPECT_LT(t16, t2);
}

struct GaussParam {
  std::uint32_t n;
  std::uint32_t procs;
};

class GaussBothModels : public ::testing::TestWithParam<GaussParam> {};

TEST_P(GaussBothModels, AgreeWithReference) {
  // Both programs run the reference's arithmetic in the same order, so the
  // solutions are exactly equal, not merely close.
  const GaussParam p = GaussParam(GetParam());
  const std::vector<double> ref = gauss_reference(p.n, GaussConfig{}.seed);
  {
    Machine m(butterfly1(16));
    GaussConfig cfg;
    cfg.n = p.n;
    cfg.processors = p.procs;
    EXPECT_EQ(gauss_us(m, cfg).solution, ref)
        << "US n=" << p.n << " P=" << p.procs;
  }
  {
    Machine m(butterfly1(16));
    GaussConfig cfg;
    cfg.n = p.n;
    cfg.processors = p.procs;
    EXPECT_EQ(gauss_smp(m, cfg).solution, ref)
        << "SMP n=" << p.n << " P=" << p.procs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GaussBothModels,
    ::testing::Values(GaussParam{8, 2}, GaussParam{16, 3}, GaussParam{17, 4},
                      GaussParam{32, 8}, GaussParam{33, 16},
                      GaussParam{64, 16}));

}  // namespace
}  // namespace bfly::apps
