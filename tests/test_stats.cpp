/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/hdr_histogram.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace footprint {
namespace {

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(StatAccumulator, SingleSample)
{
    StatAccumulator acc;
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, MeanMinMax)
{
    StatAccumulator acc;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(StatAccumulator, Variance)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_NEAR(acc.variance(), 4.0, 1e-9);
    EXPECT_NEAR(acc.stddev(), 2.0, 1e-9);
}

TEST(StatAccumulator, NegativeSamples)
{
    StatAccumulator acc;
    acc.add(-3.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(StatAccumulator, ResetClears)
{
    StatAccumulator acc;
    acc.add(1.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(StatAccumulator, MergeCombinesSamples)
{
    StatAccumulator a;
    StatAccumulator b;
    a.add(1.0);
    a.add(2.0);
    b.add(3.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(StatAccumulator, MergeWithEmpty)
{
    StatAccumulator a;
    StatAccumulator b;
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 2.0);
}

TEST(StatAccumulator, MergeEmptyIntoNonEmpty)
{
    StatAccumulator empty;
    StatAccumulator b;
    b.add(-1.0);
    b.add(5.0);
    empty.merge(b);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
    EXPECT_DOUBLE_EQ(empty.min(), -1.0);
    EXPECT_DOUBLE_EQ(empty.max(), 5.0);
}

TEST(StatAccumulator, MergeBothEmptyStaysEmpty)
{
    StatAccumulator a;
    StatAccumulator b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(StatAccumulator, MergeMatchesSingleAccumulator)
{
    // Merging two halves must reproduce sum/min/max/variance of one
    // accumulator fed every sample.
    const std::vector<double> samples{2.0, 4.0, 4.0, 4.0,
                                      5.0, 5.0, 7.0, 9.0};
    StatAccumulator whole;
    StatAccumulator lo;
    StatAccumulator hi;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.add(samples[i]);
        (i < samples.size() / 2 ? lo : hi).add(samples[i]);
    }
    lo.merge(hi);
    EXPECT_EQ(lo.count(), whole.count());
    EXPECT_DOUBLE_EQ(lo.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(lo.min(), whole.min());
    EXPECT_DOUBLE_EQ(lo.max(), whole.max());
    EXPECT_NEAR(lo.variance(), whole.variance(), 1e-12);
    EXPECT_NEAR(lo.variance(), 4.0, 1e-12);
}

TEST(Histogram, BinsSamplesCorrectly)
{
    Histogram h(10.0, 5);
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(45.0);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, OverflowBin)
{
    Histogram h(1.0, 4);
    h.add(100.0);
    h.add(3.5);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(Histogram, NegativeClampsToFirstBin)
{
    Histogram h(1.0, 4);
    h.add(-5.0);
    EXPECT_EQ(h.binCount(0), 1u);
}

TEST(Histogram, ResetClears)
{
    Histogram h(1.0, 4);
    h.add(2.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.binCount(2), 0u);
}

TEST(Histogram, PercentileMedian)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.5);
}

TEST(Histogram, PercentileEmptyIsZero)
{
    Histogram h(1.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileExtremesHitBinEdges)
{
    Histogram h(10.0, 10);
    h.add(25.0);  // bin 2: [20, 30)
    h.add(27.0);
    h.add(44.0);  // bin 4: [40, 50)
    // fraction 0 -> lower edge of the first non-empty bin.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 20.0);
    // fraction 1 -> upper edge of the last non-empty bin.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 50.0);
    // Out-of-range fractions clamp.
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 20.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 50.0);
}

TEST(Histogram, PercentileInterpolatesWithinBin)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 4; ++i)
        h.add(15.0);  // all four samples in bin 1: [10, 20)
    // Quartile targets interpolate across the single occupied bin
    // instead of reporting its upper edge for every fraction.
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 12.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 17.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

TEST(Histogram, PercentileAllOverflowReportsThreshold)
{
    Histogram h(1.0, 4);
    h.add(100.0);
    h.add(200.0);
    // Overflow sample values are unknown; every fraction reports the
    // histogram's upper resolution limit.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Histogram, PercentileMixedOverflow)
{
    Histogram h(1.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(9.0);  // overflow
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    // Fractions inside the binned range interpolate normally...
    EXPECT_NEAR(h.percentile(0.5), 1.5, 1e-12);
    // ...and fractions past the binned samples hit the threshold.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Histogram, ToStringListsNonEmptyBins)
{
    Histogram h(1.0, 4);
    h.add(1.5);
    const std::string s = h.toString();
    EXPECT_NE(s.find("1-2: 1"), std::string::npos);
    EXPECT_EQ(s.find("0-1"), std::string::npos);
}

TEST(Histogram, PercentileP999ResolvesDeepTail)
{
    // 1000 distinct samples, one per bin: p999 must land in the last
    // occupied bin, not collapse into p99's.
    Histogram h(1.0, 1000);
    for (int i = 0; i < 1000; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.percentile(0.999), 999.0, 1.5);
    EXPECT_GT(h.percentile(0.999), h.percentile(0.99) + 5.0);
}

// --- HdrHistogram (log-bucketed tail-latency histogram). ---

/** Exact quantile of a sorted sample set, percentile()'s convention. */
std::uint64_t
exactQuantile(const std::vector<std::uint64_t>& sorted, double f)
{
    const double target = f * static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(target));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, sorted.size() - 1)];
}

TEST(HdrHistogram, EmptyIsZero)
{
    HdrHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(HdrHistogram, LinearRegionIsExact)
{
    HdrHistogram h;
    for (std::uint64_t v = 0; v < 256; ++v)
        h.add(v);
    // Values below the sub-bucket count have one bucket each.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 127.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 255.0);
    EXPECT_EQ(h.max(), 255u);
    EXPECT_DOUBLE_EQ(h.mean(), 127.5);
}

TEST(HdrHistogram, QuantilesWithinOnePercentOfExact)
{
    // Cross-validation satellite: a heavy-tailed deterministic sample
    // set spanning five decades; every reported quantile must be
    // within 1% relative of the exact sorted-sample quantile (the
    // geometry's own bound is 2^-8 = 0.39%).
    HdrHistogram h;
    Rng gen(99);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
        // Bulk near 100..1100, tail stretched by squaring.
        const std::uint64_t u = gen.nextBounded(1000) + 100;
        const std::uint64_t v = (i % 100 == 0) ? u * u : u;
        samples.push_back(v);
        h.add(v);
    }
    std::sort(samples.begin(), samples.end());
    ASSERT_EQ(h.count(), samples.size());
    for (const double f : {0.05, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999}) {
        const auto exact =
            static_cast<double>(exactQuantile(samples, f));
        const double got = h.percentile(f);
        EXPECT_NEAR(got, exact, 0.01 * exact + 0.5)
            << "fraction " << f;
    }
    EXPECT_LE(h.relativeErrorBound(), 0.01);
}

TEST(HdrHistogram, PercentilesNeverExceedTheRecordedMax)
{
    // Past the linear region a bucket spans two or more values, so its
    // midpoint can lie above every sample in it: 308 falls in
    // [308, 310), midpoint 309. The recorded max caps every quantile.
    HdrHistogram h;
    h.add(std::uint64_t{100});
    h.add(std::uint64_t{308});
    EXPECT_EQ(h.max(), 308u);
    for (const double f : {0.5, 0.99, 0.999, 1.0})
        EXPECT_LE(h.percentile(f), 308.0) << "fraction " << f;
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 308.0);
}

TEST(HdrHistogram, OverflowClampsIntoTopBucket)
{
    HdrHistogram h(1 << 10);
    h.add(std::uint64_t{500});
    h.add(std::uint64_t{1} << 40);  // far past max_value
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflowCount(), 1u);
    // The clamped sample still shows up in the top of the range.
    EXPECT_EQ(h.max(), std::uint64_t{1} << 10);
    EXPECT_GE(h.percentile(1.0), 1000.0);
}

TEST(HdrHistogram, NegativeAndFractionalDoublesClamp)
{
    HdrHistogram h;
    h.add(-3.0);
    h.add(2.6);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);  // rounded to nearest
}

TEST(HdrHistogram, MergeMatchesCombinedSamples)
{
    HdrHistogram a, b, all;
    Rng gen(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = gen.nextBounded(1 << 20);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (const double f : {0.1, 0.5, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(a.percentile(f), all.percentile(f));
}

TEST(HdrHistogram, MergeRejectsIncompatibleGeometry)
{
    HdrHistogram narrow(1 << 10), wide(1ULL << 40);
    wide.add(std::uint64_t{42});
    narrow.merge(wide);  // dropped, not corrupted
    EXPECT_EQ(narrow.count(), 0u);
}

TEST(HdrHistogram, ResetClears)
{
    HdrHistogram h;
    h.add(std::uint64_t{1000});
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

} // namespace
} // namespace footprint
