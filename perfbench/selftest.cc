// Copyright (c) SkyBench-NG contributors.
// Tests of the benchmark's own arithmetic: percentile selection, medians
// and quartiles, span self time under overlapping children, and the
// determinism of the seeded input generators. Run with
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <set>

#include "bench.h"
#include "data/generator.h"
#include "gen.h"
#include "query/engine.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Stats, NearestRankPercentile) {
  const std::vector<double> v = {7, 1, 10, 3, 2, 9, 4, 6, 8, 5};
  EXPECT_EQ(Percentile(v, 10), 1);
  EXPECT_EQ(Percentile(v, 50), 5);
  EXPECT_EQ(Percentile(v, 90), 9);
  EXPECT_EQ(Percentile(v, 91), 10);
  EXPECT_EQ(Percentile(v, 100), 10);
  EXPECT_EQ(Percentile({42}, 99), 42);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(Percentile(v, 0), std::invalid_argument);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
}

TEST(Stats, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({5}), 5);
  EXPECT_THROW(Median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(data, n=4).
  const auto check = [](std::vector<double> data, double q1, double q2,
                        double q3) {
    const Quartiles q = QuartilesOf(std::move(data));
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  check({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  check({1, 2, 3, 4}, 1.25, 2.5, 3.75);
  check({5, 1}, 0.0, 3.0, 6.0);
  check({3, 1, 4, 1, 5, 9, 2, 6, 5}, 1.5, 4.0, 5.5);
  EXPECT_THROW(QuartilesOf({1}), std::invalid_argument);
}

TEST(Spans, CoveredLengthCountsOverlapOnce) {
  EXPECT_DOUBLE_EQ(CoveredLength({{1, 4}, {2, 6}, {8, 9}}, 0, 10), 6);
  EXPECT_DOUBLE_EQ(CoveredLength({{-5, 2}, {9, 12}}, 0, 10), 3);
  EXPECT_DOUBLE_EQ(CoveredLength({{2, 3}, {2, 3}}, 0, 10), 1);
  EXPECT_DOUBLE_EQ(CoveredLength({}, 0, 10), 0);
}

TEST(Spans, SelfTimeDoesNotSubtractParallelShardsTwice) {
  SpanLog log;
  const int call = log.Add(Span{"read", 10, 16, -1, 7, {}});
  sky::obs::QueryTrace trace;
  trace.spans = {
      {"query", -1, 0.0, 5.0, {}},   {"plan", 0, 0.0, 0.5, {}},
      {"shard[0]", 0, 1.0, 2.0, {}}, {"shard[1]", 0, 1.0, 3.0, {}},
      {"merge", 0, 4.0, 0.75, {}},
  };
  log.GraftQueryTrace(call, trace);
  const std::vector<Span> spans = log.spans();
  const auto children = ChildrenOf(spans);
  ASSERT_EQ(spans.size(), 6u);
  // The engine root is aligned to end when the benchmark's span ends.
  EXPECT_DOUBLE_EQ(spans[1].start, 11.0);
  EXPECT_DOUBLE_EQ(spans[1].end, 16.0);
  EXPECT_EQ(spans[1].parent, call);
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_EQ(spans[3].request, 7u);
  // Root children cover [0,0.5] + [1,4] + [4,4.75] = 4.25 of 5 seconds.
  EXPECT_DOUBLE_EQ(SelfTime(spans, children, 1), 0.75);
  EXPECT_DOUBLE_EQ(SelfTime(spans, children, call), 1.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, children, 3), 2.0);
}

TEST(Spans, RunStatsPhasesAreLaidEndToEnd) {
  SpanLog log;
  const int call = log.Add(Span{"compute", 1.0, 2.0, -1, 0, {}});
  sky::RunStats stats;
  stats.init_seconds = 0.1;
  stats.phase1_seconds = 0.5;
  stats.phase2_seconds = 0.2;
  stats.total_seconds = 0.9;
  log.GraftRunStats(call, stats);
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(spans[4].name, "phase1");
  EXPECT_DOUBLE_EQ(spans[4].start, 1.1);
  EXPECT_EQ(spans[7].name, "other");
  EXPECT_NEAR(spans[7].duration(), 0.1, 1e-12);
  EXPECT_NEAR(SelfTime(spans, ChildrenOf(spans), call), 0.1, 1e-12);
}

std::vector<std::string> ColdKeys(uint64_t seed, const ColumnQuantiles& q,
                                  size_t n) {
  ColdSpecGenerator gen(seed, q);
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(gen.Next().Canonicalize(q.dims()).CanonicalKey());
  }
  return keys;
}

TEST(Generators, ColdSpecsAreDeterministicAndUnique) {
  const sky::Dataset data =
      sky::GenerateSynthetic(sky::Distribution::kAnticorrelated, 4000, 8, 3);
  const ColumnQuantiles q(data);
  const size_t n = 8 * ColdShapes().size();
  const std::vector<std::string> a = ColdKeys(11, q, n);
  EXPECT_EQ(a, ColdKeys(11, q, n));
  EXPECT_NE(a, ColdKeys(12, q, n));
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), n);
}

TEST(Generators, HotPoolIsDeterministicAndUnique) {
  const sky::Dataset data =
      sky::GenerateSynthetic(sky::Distribution::kIndependent, 4000, 8, 3);
  const ColumnQuantiles q(data);
  const auto keys = [&](uint64_t seed) {
    std::vector<std::string> out;
    for (const sky::QuerySpec& s : MakeHotPool(seed, q, 256)) {
      out.push_back(s.Canonicalize(8).CanonicalKey());
    }
    return out;
  };
  const std::vector<std::string> a = keys(5);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(a, keys(5));
  EXPECT_NE(a, keys(6));
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
}

TEST(Generators, ZipfIsDeterministicAndSkewed) {
  const ZipfSampler zipf(256, 0.99);
  double total = 0.0;
  for (size_t r = 0; r < 256; ++r) {
    total += zipf.Probability(r);
    if (r > 0) {
      EXPECT_LT(zipf.Probability(r), zipf.Probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  Rng a(9, 1), b(9, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(a), zipf.Sample(b));
}

TEST(Generators, MutationBatchesAreDeterministicAndLocalized) {
  const sky::Dataset data =
      sky::GenerateSynthetic(sky::Distribution::kIndependent, 4000, 8, 3);
  const Mirror mirror(data);
  Rng a(21, 2), b(21, 2);
  const sky::Dataset rows_a = MakeInsertBatch(a, 8, 64, 0.01);
  const sky::Dataset rows_b = MakeInsertBatch(b, 8, 64, 0.01);
  sky::Value lo = 1, hi = 0;
  for (size_t i = 0; i < 64; ++i) {
    for (int d = 0; d < 8; ++d) EXPECT_EQ(rows_a.Row(i)[d], rows_b.Row(i)[d]);
    lo = std::min(lo, rows_a.Row(i)[0]);
    hi = std::max(hi, rows_a.Row(i)[0]);
  }
  EXPECT_LE(hi - lo, 0.01f);
  const std::vector<sky::PointId> ids = PickDeleteBatch(a, mirror, 64, 0.01);
  EXPECT_EQ(ids, PickDeleteBatch(b, mirror, 64, 0.01));
  EXPECT_EQ(std::set<sky::PointId>(ids.begin(), ids.end()).size(), 64u);
  for (const sky::PointId id : ids) EXPECT_LT(id, mirror.count());
}

TEST(Generators, MirrorFollowsEngineMutations) {
  const sky::Dataset data =
      sky::GenerateSynthetic(sky::Distribution::kIndependent, 3000, 8, 4);
  Mirror mirror(data);
  sky::SkylineEngine engine;
  engine.RegisterDataset("d", data.Clone());
  Rng rng(1, 1);
  for (int j = 0; j < 4; ++j) {
    if (j % 2 == 0) {
      const sky::Dataset rows = MakeInsertBatch(rng, 8, 64, 0.01);
      engine.InsertPoints("d", rows);
      mirror.Append(rows);
    } else {
      const std::vector<sky::PointId> ids =
          PickDeleteBatch(rng, mirror, 64, 0.01);
      engine.DeletePoints("d", ids);
      mirror.Erase(ids);
    }
    EXPECT_TRUE(mirror.Matches(*engine.Find("d")));
  }
}

TEST(Digest, IgnoresOrderButNotContent) {
  EXPECT_EQ(DigestOf({1, 2, 3}), DigestOf({3, 1, 2}));
  EXPECT_NE(DigestOf({1, 2, 3}), DigestOf({1, 2, 4}));
  EXPECT_NE(DigestOf({1, 2}), DigestOf({1, 2, 2}));
  EXPECT_NE(DigestOf({1, 2}, {0, 0}), DigestOf({1, 2}, {0, 1}));
}

}  // namespace
}  // namespace perfbench
