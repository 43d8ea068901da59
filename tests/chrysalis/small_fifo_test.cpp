#include "chrysalis/small_fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/rng.hpp"

namespace bfly::chrys {
namespace {

using Fifo = SmallFifo<std::uint32_t, 4>;

std::vector<std::uint32_t> contents(Fifo& f) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < f.size(); ++i) out.push_back(f[i]);
  return out;
}

TEST(SmallFifo, PushesAtBothEndsAndWrapsInline) {
  Fifo f;
  EXPECT_TRUE(f.empty());
  f.push_back(1);
  f.push_back(2);
  f.pop_front();
  f.push_back(3);
  f.push_front(0);  // wraps around slot 0
  f.push_front(9);
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{9, 0, 2, 3}));
  EXPECT_FALSE(f.spilled());
  EXPECT_EQ(f.front(), 9u);
}

TEST(SmallFifo, SpillsPastTheInlineSlotsKeepingOrder) {
  Fifo f;
  for (std::uint32_t i = 0; i < 3; ++i) f.push_back(i);
  f.pop_front();
  f.pop_front();  // head is now mid-ring, so growing must unroll it
  for (std::uint32_t i = 3; i < 12; ++i) f.push_back(i);
  f.push_front(1);
  EXPECT_TRUE(f.spilled());
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 1; i < 12; ++i) want.push_back(i);
  EXPECT_EQ(contents(f), want);
}

TEST(SmallFifo, EraseAtAndRemoveKeepTheOthersInOrder) {
  Fifo f;
  for (std::uint32_t v : {5u, 6u, 7u, 6u, 8u, 9u}) f.push_back(v);
  f.erase_at(2);  // 7
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{5, 6, 6, 8, 9}));
  f.erase_at(0);
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{6, 6, 8, 9}));
  f.erase_at(3);
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{6, 6, 8}));
  f.remove(6);
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{8}));
  f.remove(42);
  EXPECT_EQ(contents(f), (std::vector<std::uint32_t>{8}));
}

// Random operation mix against std::deque, across spills and wrap-around.
TEST(SmallFifo, MatchesADequeUnderRandomOperations) {
  Fifo f;
  std::deque<std::uint32_t> ref;
  sim::Rng rng(5);
  for (int step = 0; step < 20000; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.below(16));
    switch (rng.below(6)) {
      case 0:
      case 1:
        f.push_back(v);
        ref.push_back(v);
        break;
      case 2:
        f.push_front(v);
        ref.push_front(v);
        break;
      case 3:
        if (!ref.empty()) {
          f.pop_front();
          ref.pop_front();
        }
        break;
      case 4:
        if (!ref.empty()) {
          const std::size_t i = rng.below(ref.size());
          f.erase_at(i);
          ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      default:
        f.remove(v);
        std::erase(ref, v);
    }
    ASSERT_EQ(f.size(), ref.size());
    ASSERT_EQ(contents(f), std::vector<std::uint32_t>(ref.begin(), ref.end()))
        << "step " << step;
  }
}

}  // namespace
}  // namespace bfly::chrys
