// Unit tests of the benchmark's measurement helpers (harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include "types/tuple.h"
#include "types/value.h"

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 51);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 100);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 101);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 25), 12.5);
}

TEST(PercentileTest, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(5), 50);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
}

Span MakeSpan(int id, int parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "s" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // root [0,100) with children [10,30) and [20,50) (overlapping: 40 covered)
  // and a grandchild [12,18) inside the first child.
  std::vector<Span> spans = {MakeSpan(0, -1, 0, 100), MakeSpan(1, 0, 10, 30),
                             MakeSpan(2, 0, 20, 50), MakeSpan(3, 1, 12, 18)};
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SelfTimeTest, ClipsChildrenToTheParentAndSumsPerRun) {
  std::vector<Span> spans = {MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 5, 20)};
  spans[1].name = spans[0].name;  // same name, same run: self times add up
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 15);
  auto by_name = SelfTimeByNameAndRun(spans);
  EXPECT_EQ(by_name["s0"][0], 20);
}

TEST(SpanRecorderTest, DisabledRecordsNothing) {
  SpanRecorder off(false);
  { ScopedSpan s(&off, "x", -1, 0); }
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "outer", -1, 3);
    ScopedSpan inner(&on, "inner", outer.id(), 3);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].run, 3);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

streampart::Tuple Row(uint64_t a, int64_t b) {
  return streampart::Tuple(
      {streampart::Value::Uint(a), streampart::Value::Int(b)});
}

bool MultisetEqual(const streampart::TupleBatch& a,
                   const streampart::TupleBatch& b) {
  return SortedEncodings(a) == SortedEncodings(b);
}

TEST(MultisetTest, IgnoresOrderButNotMultiplicity) {
  streampart::TupleBatch a = {Row(1, 2), Row(3, 4), Row(1, 2)};
  streampart::TupleBatch b = {Row(3, 4), Row(1, 2), Row(1, 2)};
  streampart::TupleBatch c = {Row(3, 4), Row(3, 4), Row(1, 2)};
  streampart::TupleBatch d = {Row(3, 4), Row(1, 2)};
  EXPECT_TRUE(MultisetEqual(a, b));
  EXPECT_FALSE(MultisetEqual(a, c));
  EXPECT_FALSE(MultisetEqual(a, d));
  EXPECT_TRUE(MultisetEqual({}, {}));
}

TEST(MultisetTest, DistinguishesValueTypes) {
  streampart::TupleBatch a = {
      streampart::Tuple({streampart::Value::Uint(5)})};
  streampart::TupleBatch b = {streampart::Tuple({streampart::Value::Int(5)})};
  EXPECT_FALSE(MultisetEqual(a, b));
}

}  // namespace
}  // namespace perfbench
