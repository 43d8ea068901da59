// The shared JSON writer: every byte of JSON the repo emits (fault stats,
// bench rows, scope exports) routes through it, so its escaping and comma
// placement are load-bearing for downstream scrapers and trace viewers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/json.hpp"
#include "sim/stats.hpp"

namespace bfly::sim::json {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(escape("plain text 123"), "plain text 123");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
  EXPECT_EQ(escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonWriter, NestsObjectsAndArrays) {
  Writer w;
  w.begin_object()
      .kv("a", std::uint64_t{1})
      .key("arr")
      .begin_array()
      .value(std::uint64_t{2})
      .value("x")
      .end_array()
      .key("obj")
      .begin_object()
      .kv("b", true)
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"arr\":[2,\"x\"],\"obj\":{\"b\":true}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero) {
  Writer w;
  w.begin_object()
      .kv("nan", std::nan(""))
      .kv("inf", HUGE_VAL)
      .end_object();
  EXPECT_EQ(w.str(), "{\"nan\":0,\"inf\":0}");
}

TEST(JsonWriter, SignedAndUnsignedIntegers) {
  Writer w;
  w.begin_array()
      .value(std::int64_t{-7})
      .value(std::uint64_t{18446744073709551615ull})
      .value(std::int32_t{-1})
      .end_array();
  EXPECT_EQ(w.str(), "[-7,18446744073709551615,-1]");
}

TEST(JsonWriter, FragmentShapeSeparatesTopLevelPairs) {
  Writer w(Writer::kFragment);
  w.kv("a", std::uint64_t{1}).kv("b", std::uint64_t{2});
  EXPECT_EQ(w.str(), "\"a\":1,\"b\":2");
}

TEST(JsonWriter, RawSplicesFragmentsWithCommas) {
  Writer frag(Writer::kFragment);
  frag.kv("x", std::uint64_t{1}).kv("y", std::uint64_t{2});
  Writer w;
  w.begin_object().kv("head", true).raw(frag.str()).end_object();
  EXPECT_EQ(w.str(), "{\"head\":true,\"x\":1,\"y\":2}");
}

TEST(JsonWriter, FaultJsonFragmentSplices) {
  // MachineStats::fault_json() is a braceless fragment by contract; it must
  // splice into a Writer object without doubling or dropping commas.
  MachineStats st;
  st.mem_faults_injected = 3;
  Writer w;
  w.begin_object().kv("bench", "x").raw(st.fault_json()).end_object();
  const std::string out = w.str();
  EXPECT_NE(out.find("\"bench\":\"x\",\"mem_faults_injected\":3"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
}

TEST(JsonWriter, SameKeyInDifferentObjectsIsFine) {
  Writer w;
  w.begin_object()
      .kv("a", std::uint64_t{1})
      .key("inner")
      .begin_object()
      .kv("a", std::uint64_t{2})
      .end_object()
      .key("rows")
      .begin_array()
      .begin_object()
      .kv("a", std::uint64_t{3})
      .end_object()
      .begin_object()
      .kv("a", std::uint64_t{4})
      .end_object()
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"inner\":{\"a\":2},\"rows\":[{\"a\":3},{\"a\":4}]}");
}

#ifndef NDEBUG
TEST(JsonWriterDeathTest, RepeatedKeyInOneObjectAsserts) {
  EXPECT_DEATH(
      {
        Writer w;
        w.begin_object()
            .kv("a", std::uint64_t{1})
            .key("inner")
            .begin_object()
            .end_object()
            .kv("a", std::uint64_t{2});
      },
      "duplicate key");
  EXPECT_DEATH(
      {
        Writer w(Writer::kFragment);
        w.kv("serve_hedges", std::uint64_t{1})
            .kv("serve_hedges", std::uint64_t{2});
      },
      "duplicate key");
}
#endif

}  // namespace
}  // namespace bfly::sim::json
