/**
 * @file
 * Tests for the log-spaced histogram. The cases over small values
 * use ranges below 2 * 2^sub_bits, where every bucket holds exactly
 * one value.
 */

#include <gtest/gtest.h>

#include "util/stats.h"

namespace pra {
namespace util {
namespace {

TEST(Histogram, CountsBucketsAndOverflow)
{
    Histogram h = Histogram::logSpaced(4, 2);
    h.add(0);
    h.add(2, 3);
    h.add(4);
    h.add(9); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 3u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, MeanIncludesWeights)
{
    Histogram h = Histogram::logSpaced(10, 3);
    h.add(2, 2);
    h.add(8, 2);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h = Histogram::logSpaced(10, 3);
    for (uint64_t v = 1; v <= 10; v++)
        h.add(v);
    EXPECT_EQ(h.percentile(0.1), 1u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 10u);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h = Histogram::logSpaced(4, 2);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h = Histogram::logSpaced(4, 2);
    h.add(1);
    h.add(100);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(Histogram, SmallRangeReportsExactBounds)
{
    Histogram h = Histogram::logSpaced(8, 3);
    EXPECT_EQ(h.maxValue(), 8u);
    EXPECT_EQ(h.numBuckets(), 9u);
    for (uint32_t i = 0; i <= 8; i++) {
        EXPECT_EQ(h.bucketLow(i), i);
        EXPECT_EQ(h.bucketHigh(i), i);
    }
}

TEST(Histogram, OverflowPercentileSaturatesLoudly)
{
    // Overflowed samples report as maxValue + 1 — a sentinel outside
    // the histogram's range — rather than a silently wrong in-range
    // value.
    Histogram unit = Histogram::logSpaced(4, 2);
    unit.add(100);
    EXPECT_EQ(unit.percentile(1.0), 5u);
    unit.add(2);
    EXPECT_EQ(unit.percentile(0.5), 2u);
    EXPECT_EQ(unit.percentile(1.0), 5u);

    Histogram log = Histogram::logSpaced(uint64_t{1} << 10);
    log.add(uint64_t{1} << 12);
    EXPECT_EQ(log.overflow(), 1u);
    EXPECT_EQ(log.percentile(1.0), (uint64_t{1} << 10) + 1);
}

TEST(Histogram, LogSpacedIsExactBelowTwiceTheSubBucketCount)
{
    // Values below 2 * 2^5 = 64 get unit buckets: exact percentiles.
    for (uint64_t v : {0u, 1u, 33u, 63u}) {
        Histogram single = Histogram::logSpaced(uint64_t{1} << 20, 5);
        single.add(v);
        EXPECT_EQ(single.percentile(1.0), v);
    }
}

TEST(Histogram, LogSpacedBucketBoundsAreConservativeAndTight)
{
    // A single sample's percentile is the bucket's upper bound: never
    // below the sample, within 2^-subBits relative error above it.
    const int sub_bits = 5;
    for (uint64_t v :
         {64ull, 100ull, 1000ull, 123456ull, 1ull << 30,
          (1ull << 40) - 1, 1ull << 40}) {
        Histogram h = Histogram::logSpaced(uint64_t{1} << 40, sub_bits);
        h.add(v);
        uint64_t p = h.percentile(1.0);
        EXPECT_GE(p, v);
        EXPECT_LE(p, v + (v >> sub_bits));
    }
}

TEST(Histogram, LogSpacedBucketRangesTileTheDomain)
{
    Histogram h = Histogram::logSpaced(uint64_t{1} << 16, 4);
    // Consecutive buckets abut: high(i) + 1 == low(i + 1), starting
    // from bucket 0 == value 0.
    EXPECT_EQ(h.bucketLow(0), 0u);
    for (uint32_t i = 0; i + 1 < h.numBuckets(); i++) {
        EXPECT_LE(h.bucketLow(i), h.bucketHigh(i)) << i;
        EXPECT_EQ(h.bucketHigh(i) + 1, h.bucketLow(i + 1)) << i;
    }
    EXPECT_GE(h.bucketHigh(h.numBuckets() - 1), h.maxValue());
}

TEST(Histogram, LogSpacedCoversCycleScaleRangesCheaply)
{
    // The whole point: 2^42 cycles of range in a few thousand
    // buckets instead of a 32 TB unit-bucket array.
    Histogram h = Histogram::logSpaced(uint64_t{1} << 42, 6);
    EXPECT_LT(h.numBuckets(), 4096u);
    h.add(1);
    h.add(uint64_t{1} << 41);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_GE(h.percentile(1.0), uint64_t{1} << 41);
}

TEST(Histogram, LogSpacedResetClearsEverything)
{
    Histogram h = Histogram::logSpaced(uint64_t{1} << 20);
    h.add(5);
    h.add(uint64_t{1} << 30); // overflow
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    // The layout survives reset.
    EXPECT_EQ(h.numBuckets(),
              Histogram::logSpaced(uint64_t{1} << 20).numBuckets());
}

TEST(HistogramDeathTest, RejectsUnpayableLayouts)
{
    EXPECT_DEATH(Histogram::logSpaced(0), "empty sample range");
    EXPECT_DEATH(Histogram::logSpaced(1024, 9), "sub_bits");
    EXPECT_DEATH(Histogram::logSpaced(1024, -1), "sub_bits");
}

} // namespace
} // namespace util
} // namespace pra
