#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/latency_histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace dynasore::common {
namespace {

// ----- Rng -----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedZeroReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t x = rng.NextRange(10, 20);
    EXPECT_GE(x, 10u);
    EXPECT_LT(x, 20u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 100);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(RngTest, ShuffleKeepsAllElements) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(23);
  Rng split = a.Split();
  EXPECT_NE(a.NextU64(), split.NextU64());
}

// ----- AliasTable -----

TEST(AliasTableTest, EmptyTable) {
  AliasTable table;
  EXPECT_TRUE(table.empty());
}

TEST(AliasTableTest, SingleEntryAlwaysSampled) {
  const std::vector<double> w{5.0};
  AliasTable table(w);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(AliasTableTest, MatchesWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable table(w);
  Rng rng(5);
  std::vector<int> counts(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[table.Sample(rng)];
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / draws, w[i] / 10.0, 0.01)
        << "index " << i;
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  const std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  AliasTable table(w);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, AllZeroFallsBackToUniform) {
  const std::vector<double> w{0.0, 0.0, 0.0};
  AliasTable table(w);
  Rng rng(9);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[table.Sample(rng)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

// ----- PowerLawSampler -----

TEST(PowerLawTest, StaysInBounds) {
  PowerLawSampler sampler(2, 100, 2.5);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t x = sampler.Sample(rng);
    EXPECT_GE(x, 2u);
    EXPECT_LE(x, 100u);
  }
}

TEST(PowerLawTest, SmallValuesDominate) {
  PowerLawSampler sampler(1, 1000, 2.2);
  Rng rng(13);
  int small = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) small += sampler.Sample(rng) <= 3;
  EXPECT_GT(small, draws / 2);
}

TEST(PowerLawTest, MeanIsFiniteAndInRange) {
  PowerLawSampler sampler(1, 500, 2.3);
  const double mean = sampler.Mean();
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 500.0);
}

// ----- RunningStats / Quantile / Histogram -----

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequentialFeed) {
  // Per-shard accumulators merged on demand must agree with one
  // accumulator fed everything.
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats whole;
  for (double x : values) whole.Add(x);

  RunningStats a;
  RunningStats b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? a : b).Add(values[i]);
  }
  RunningStats merged;
  merged.Merge(a);
  merged.Merge(b);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_DOUBLE_EQ(merged.sum(), whole.sum());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats empty;
  RunningStats s;
  s.Add(3.0);
  s.Add(5.0);
  RunningStats target;
  target.Merge(empty);  // no-op
  EXPECT_EQ(target.count(), 0u);
  target.Merge(s);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 4.0);
  s.Merge(empty);  // also a no-op
  EXPECT_EQ(s.count(), 2u);
}

TEST(QuantileTest, MedianOfOddCount) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(HistogramTest, CountsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.Add(1.0);
  h.Add(3.0);
  h.Add(-5.0);  // clamps to first bucket
  h.Add(50.0);  // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(4), 1u);
}

// ----- TablePrinter -----

TEST(TableTest, CsvRoundTrip) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(0.12345, 2), "0.12");
  EXPECT_EQ(TablePrinter::Fmt(std::uint64_t{42}), "42");
}

// ----- LatencyHistogram -----

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v : {0, 1, 2, 3, 4, 5, 6, 7}) h.Add(v);
  // Below 2^kSubBits every value has its own bucket.
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 7u);
  EXPECT_EQ(h.Percentile(0.5), 3u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 28u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
}

TEST(LatencyHistogramTest, BucketMappingIsMonotoneAndTight) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 100000; v = v * 3 / 2 + 1) {
    const std::size_t b = LatencyHistogram::BucketOf(v);
    ASSERT_GE(b, prev);  // larger values never map to earlier buckets
    prev = b;
    // The bucket's upper edge is >= v and within 12.5% (one sub-bucket).
    const std::uint64_t upper = LatencyHistogram::BucketUpper(b);
    ASSERT_GE(upper, v);
    ASSERT_LE(static_cast<double>(upper),
              static_cast<double>(v) * 1.125 + 1.0);
  }
}

TEST(LatencyHistogramTest, PercentileErrorIsBounded) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.Add(v);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = static_cast<double>(q * 10000);
    const auto approx = static_cast<double>(h.Percentile(q));
    EXPECT_GE(approx, exact - 1.0) << q;
    EXPECT_LE(approx, exact * 1.125 + 1.0) << q;
  }
  EXPECT_EQ(h.Percentile(1.0), 10000u);  // capped at the observed max
  EXPECT_EQ(h.max(), 10000u);
}

TEST(LatencyHistogramTest, MergeMatchesSequentialFeed) {
  LatencyHistogram a, b, both;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ((v % 3 == 0) ? a : b).Add(v * 17);
    both.Add(v * 17);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Percentile(q), both.Percentile(q)) << q;
  }
}

TEST(LatencyHistogramTest, MergeWithEmptySides) {
  LatencyHistogram empty, filled;
  filled.Add(123456);
  LatencyHistogram target = filled;
  target.Merge(empty);
  EXPECT_EQ(target.count(), 1u);
  empty.Merge(filled);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.Percentile(0.5), filled.Percentile(0.5));
}

TEST(LatencyHistogramTest, BucketLowerMapsBackIntoItsBucket) {
  // The bucket-iteration API's contract: a bucket's lower bound is a member
  // of that bucket, and lower bounds ascend with the index. This is what
  // makes the CSV export re-loadable without shifting mass between buckets.
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t lower = LatencyHistogram::BucketLower(i);
    ASSERT_EQ(LatencyHistogram::BucketOf(lower), i) << "bucket " << i;
    ASSERT_LE(lower, LatencyHistogram::BucketUpper(i));
    if (i > 0) {
      ASSERT_GT(lower, previous) << "bucket " << i;
    }
    previous = lower;
  }
}

TEST(LatencyHistogramTest, ToCsvRoundTripsBucketCounts) {
  LatencyHistogram h;
  // Exact range, several octaves, repeated values, and a huge outlier.
  const std::uint64_t values[] = {0,    1,      7,       8,      9,
                                  100,  100,    1023,    1024,   90000,
                                  12345678, 987654321012ull};
  for (const std::uint64_t v : values) h.Add(v);

  // VisitBuckets walks non-empty buckets ascending and conserves the count.
  std::size_t non_empty = 0;
  std::uint64_t visited = 0;
  std::uint64_t last_lower = 0;
  bool first = true;
  h.VisitBuckets([&](std::uint64_t lower, std::uint64_t count) {
    EXPECT_GT(count, 0u);
    if (!first) {
      EXPECT_GT(lower, last_lower);
    }
    first = false;
    last_lower = lower;
    visited += count;
    ++non_empty;
  });
  EXPECT_EQ(visited, h.count());

  // Parse the CSV and re-Add each row's lower bound `count` times: the
  // rebuilt histogram holds identical bucket counts (sum/max are lossy —
  // they collapse to bucket lower bounds — but the distribution is not).
  const std::string csv = h.ToCsv();
  ASSERT_EQ(csv.rfind("bucket_lower_ns,count\n", 0), 0u);
  LatencyHistogram rebuilt;
  std::size_t pos = csv.find('\n') + 1;
  std::size_t rows = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t eol = csv.find('\n', pos);
    ASSERT_NE(comma, std::string::npos);
    ASSERT_NE(eol, std::string::npos);
    const std::uint64_t lower =
        std::stoull(csv.substr(pos, comma - pos));
    const std::uint64_t count =
        std::stoull(csv.substr(comma + 1, eol - comma - 1));
    for (std::uint64_t k = 0; k < count; ++k) rebuilt.Add(lower);
    pos = eol + 1;
    ++rows;
  }
  EXPECT_EQ(rows, non_empty);  // one CSV row per non-empty bucket
  EXPECT_EQ(rebuilt.count(), h.count());
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(rebuilt.bucket_count(i), h.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(rebuilt.Percentile(0.5), h.Percentile(0.5));
  // The top percentile is clamped to the (lossy) max, so it only agrees at
  // bucket granularity.
  EXPECT_EQ(LatencyHistogram::BucketOf(rebuilt.Percentile(0.99)),
            LatencyHistogram::BucketOf(h.Percentile(0.99)));

  // An empty histogram exports just the header.
  EXPECT_EQ(LatencyHistogram().ToCsv(), "bucket_lower_ns,count\n");
}

TEST(LatencyHistogramTest, BucketBoundariesArePinned) {
  // Exported CSV columns (ToCsv bucket lower bounds) and every recorded
  // percentile depend on these exact boundaries. Changing kSubBits must
  // fail here loudly, not silently reshuffle historical distributions.
  EXPECT_EQ(LatencyHistogram::kSubBits, 3);
  EXPECT_EQ(LatencyHistogram::kNumBuckets, 496u);
  // Values below 2^3 are exact: one single-value bucket each, and the
  // first octave's sub-buckets stay single-valued too.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketOf(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLower(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpper(v), v);
  }
  // From the second octave on, 8 sub-buckets per power of two.
  EXPECT_EQ(LatencyHistogram::BucketOf(16), 16u);
  EXPECT_EQ(LatencyHistogram::BucketLower(16), 16u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(16), 17u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1000), 63u);
  EXPECT_EQ(LatencyHistogram::BucketLower(63), 960u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(63), 1023u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 64u);
  EXPECT_EQ(LatencyHistogram::BucketLower(64), 1024u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(64), 1151u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1'000'000), 143u);
  EXPECT_EQ(LatencyHistogram::BucketLower(143), 983040u);
  EXPECT_EQ(LatencyHistogram::BucketUpper(143), 1048575u);
  // The top bucket holds everything up to UINT64_MAX.
  EXPECT_EQ(LatencyHistogram::BucketOf(~std::uint64_t{0}),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketUpper(LatencyHistogram::kNumBuckets - 1),
            ~std::uint64_t{0});
}

TEST(LatencyHistogramTest, DeltaSinceMatchesSuffixFeed) {
  LatencyHistogram h;
  for (const std::uint64_t v : {5u, 100u, 90000u}) h.Add(v);
  const LatencyHistogram baseline = h;
  for (const std::uint64_t v : {7u, 100u, 3000u}) h.Add(v);

  const LatencyHistogram delta = h.DeltaSince(baseline);
  EXPECT_EQ(delta.count(), 3u);
  EXPECT_EQ(delta.sum(), 7u + 100u + 3000u);
  EXPECT_EQ(delta.bucket_count(LatencyHistogram::BucketOf(7)), 1u);
  EXPECT_EQ(delta.bucket_count(LatencyHistogram::BucketOf(100)), 1u);
  EXPECT_EQ(delta.bucket_count(LatencyHistogram::BucketOf(3000)), 1u);
  // The delta's max is the upper edge of its highest non-empty bucket,
  // clamped to the full histogram's max — here the overall max (90000) is
  // outside the delta, so 3000 rounds up within its bucket.
  EXPECT_GE(delta.max(), 3000u);
  EXPECT_EQ(delta.max(),
            LatencyHistogram::BucketUpper(LatencyHistogram::BucketOf(3000)));

  // When the overall maximum is part of the delta, the clamp makes the
  // delta max exact.
  const LatencyHistogram snap = h;
  h.Add(500000);
  EXPECT_EQ(h.DeltaSince(snap).max(), 500000u);

  // An empty delta is all-zero, and a stale (ahead-of-current) baseline
  // saturates to zeros instead of wrapping.
  const LatencyHistogram empty_delta = h.DeltaSince(h);
  EXPECT_EQ(empty_delta.count(), 0u);
  EXPECT_EQ(empty_delta.sum(), 0u);
  EXPECT_EQ(empty_delta.max(), 0u);
  LatencyHistogram ahead = h;
  ahead.Add(42);
  const LatencyHistogram stale = h.DeltaSince(ahead);
  EXPECT_EQ(stale.count(), 0u);
  EXPECT_EQ(stale.sum(), 0u);
  EXPECT_EQ(stale.max(), 0u);
}

// Property fuzz: random per-writer record streams, re-merged each "epoch"
// and diffed against the previous merge, must equal a single histogram fed
// the same values in order — bucket-for-bucket for the merge, and
// bucket/count/sum-for-bit for each epoch delta (the delta max is bounded
// by one bucket width, exactly as documented).
TEST(LatencyHistogramTest, FuzzMergeAndDeltaMatchSingleFeedReference) {
  for (std::uint64_t round = 0; round < 32; ++round) {
    Rng rng(0x600dcafe + round);
    const std::size_t num_writers = 1 + rng.NextBounded(4);
    std::vector<LatencyHistogram> writers(num_writers);
    LatencyHistogram reference;      // single feed of every value
    LatencyHistogram previous;       // last epoch's merged snapshot
    const std::uint32_t epochs = 1 + rng.NextBounded(6);
    for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
      LatencyHistogram epoch_reference;  // single feed since the snapshot
      const std::uint32_t adds = rng.NextBounded(200);
      for (std::uint32_t a = 0; a < adds; ++a) {
        // Log-uniform magnitudes below 2^48: exercises the exact range and
        // dozens of octaves while keeping the cumulative sum far from
        // uint64 wrap (the sum identity under test is exact, not modular).
        const std::uint64_t v = rng.NextU64() >> (16 + rng.NextBounded(48));
        writers[rng.NextBounded(static_cast<std::uint32_t>(num_writers))]
            .Add(v);
        reference.Add(v);
        epoch_reference.Add(v);
      }

      // Merge is exact: the re-merged writers equal the single feed
      // bit-for-bit, including sum, max, and both tails.
      LatencyHistogram combined;
      for (const LatencyHistogram& w : writers) combined.Merge(w);
      ASSERT_EQ(combined.count(), reference.count());
      ASSERT_EQ(combined.sum(), reference.sum());
      ASSERT_EQ(combined.max(), reference.max());
      for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        ASSERT_EQ(combined.bucket_count(i), reference.bucket_count(i))
            << "round " << round << " epoch " << epoch << " bucket " << i;
      }
      ASSERT_EQ(combined.Percentile(0.5), reference.Percentile(0.5));
      ASSERT_EQ(combined.Percentile(0.99), reference.Percentile(0.99));

      // The epoch delta equals a histogram fed only this epoch's values:
      // exact buckets, count, and sum; max within one bucket width above.
      const LatencyHistogram delta = combined.DeltaSince(previous);
      ASSERT_EQ(delta.count(), epoch_reference.count());
      ASSERT_EQ(delta.sum(), epoch_reference.sum());
      for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        ASSERT_EQ(delta.bucket_count(i), epoch_reference.bucket_count(i))
            << "round " << round << " epoch " << epoch << " bucket " << i;
      }
      if (delta.count() == 0) {
        ASSERT_EQ(delta.max(), 0u);
      } else {
        ASSERT_GE(delta.max(), epoch_reference.max());
        ASSERT_LE(delta.max(), LatencyHistogram::BucketUpper(
                                   LatencyHistogram::BucketOf(
                                       epoch_reference.max())));
        ASSERT_LE(delta.max(), combined.max());
      }
      previous = combined;
    }
  }
}

// On bucket-upper-valued samples the delta max loses nothing: the highest
// non-empty bucket's upper edge *is* the suffix maximum, so record/
// snapshot/record interleavings reproduce count, sum, and max bit-for-bit.
TEST(LatencyHistogramTest, FuzzDeltaIsExactOnBucketUpperSamples) {
  for (std::uint64_t round = 0; round < 32; ++round) {
    Rng rng(0xde17a + round);
    LatencyHistogram h;
    LatencyHistogram baseline;
    std::uint64_t suffix_count = 0;
    std::uint64_t suffix_sum = 0;
    std::uint64_t suffix_max = 0;
    const std::uint32_t ops = 1 + rng.NextBounded(300);
    for (std::uint32_t op = 0; op < ops; ++op) {
      if (rng.NextBounded(10) == 0) {
        baseline = h;  // re-snapshot: the suffix restarts empty
        suffix_count = suffix_sum = suffix_max = 0;
        continue;
      }
      // Stay below ~2^53 ns per sample so 300 adds cannot overflow the
      // uint64 sum invariant being checked (the top octaves' upper edges
      // saturate at UINT64_MAX).
      const std::uint64_t v =
          LatencyHistogram::BucketUpper(rng.NextBounded(408));
      h.Add(v);
      ++suffix_count;
      suffix_sum += v;
      suffix_max = std::max(suffix_max, v);
    }
    const LatencyHistogram delta = h.DeltaSince(baseline);
    ASSERT_EQ(delta.count(), suffix_count) << "round " << round;
    ASSERT_EQ(delta.sum(), suffix_sum) << "round " << round;
    ASSERT_EQ(delta.max(), suffix_max) << "round " << round;
  }
}

}  // namespace
}  // namespace dynasore::common
