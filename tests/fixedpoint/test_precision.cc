/**
 * @file
 * Tests for precision windows and trimming (paper Section V-F).
 */

#include <gtest/gtest.h>

#include "fixedpoint/fixed_point.h"
#include "fixedpoint/precision.h"
#include "tests/fixedpoint/fixed_point_oracle.h"
#include "util/random.h"

namespace pra {
namespace fixedpoint {
namespace {

TEST(PrecisionWindow, BitsAndMask)
{
    PrecisionWindow w{8, 2};
    EXPECT_EQ(w.bits(), 7);
    EXPECT_EQ(w.mask(), 0b0000'0001'1111'1100);
    EXPECT_TRUE(w.valid());
}

TEST(PrecisionWindow, FullWidthMask)
{
    PrecisionWindow w{15, 0};
    EXPECT_EQ(w.bits(), 16);
    EXPECT_EQ(w.mask(), 0xffff);
}

TEST(PrecisionWindow, SingleBitMask)
{
    PrecisionWindow w{5, 5};
    EXPECT_EQ(w.bits(), 1);
    EXPECT_EQ(w.mask(), 1u << 5);
}

TEST(PrecisionWindow, InvalidWindows)
{
    EXPECT_FALSE((PrecisionWindow{2, 5}).valid());
    EXPECT_FALSE((PrecisionWindow{16, 0}).valid());
    EXPECT_FALSE((PrecisionWindow{5, -1}).valid());
}

TEST(TrimToWindow, RemovesPrefixAndSuffix)
{
    // Figure 1: EoP prefix and suffix bits plus LoE zero bits.
    PrecisionWindow w{6, 2};
    EXPECT_EQ(trimToWindow(0b1111'1111'1111'1111, w), 0b0111'1100);
    EXPECT_EQ(trimToWindow(0b0000'0000'0000'0011, w), 0);
}

TEST(TrimToWindow, NeverIncreasesEssentialBits)
{
    util::Xoshiro256 rng(0x7312);
    PrecisionWindow w{10, 3};
    for (int i = 0; i < 5000; i++) {
        auto v = static_cast<uint16_t>(rng.nextBounded(65536));
        uint16_t t = trimToWindow(v, w);
        EXPECT_LE(essentialBits(t), essentialBits(v));
        EXPECT_LE(t, v);
        // Idempotent.
        EXPECT_EQ(trimToWindow(t, w), t);
    }
}

TEST(ProfileWindow, ZeroToleranceKeepsEveryUsedBit)
{
    std::vector<uint16_t> values = {0b0001'0100, 0b0000'0110};
    PrecisionWindow w = profileWindow(values, 0.0);
    EXPECT_EQ(w.msb, 4);
    EXPECT_EQ(w.lsb, 1);
    EXPECT_EQ(trimLossFraction(values, w), 0.0);
}

TEST(ProfileWindow, AllZeroLayer)
{
    std::vector<uint16_t> values = {0, 0, 0};
    PrecisionWindow w = profileWindow(values);
    EXPECT_TRUE(w.valid());
    EXPECT_EQ(w.bits(), 1);
}

TEST(ProfileWindow, ToleranceShrinksWindow)
{
    // Values with tiny suffix content: a loose tolerance should drop
    // the low bits.
    std::vector<uint16_t> values;
    for (int i = 0; i < 64; i++)
        values.push_back(static_cast<uint16_t>(0x400 | (i & 1)));
    PrecisionWindow strict = profileWindow(values, 0.0);
    PrecisionWindow loose = profileWindow(values, 0.01);
    EXPECT_EQ(strict.lsb, 0);
    EXPECT_GT(loose.lsb, 0);
    EXPECT_LE(loose.bits(), strict.bits());
}

TEST(ProfileWindow, LossStaysWithinTolerance)
{
    util::Xoshiro256 rng(0xbeef);
    for (double tol : {0.0, 0.005, 0.02, 0.1}) {
        std::vector<uint16_t> values;
        for (int i = 0; i < 400; i++)
            values.push_back(
                static_cast<uint16_t>(rng.nextBounded(1u << 12)));
        PrecisionWindow w = profileWindow(values, tol);
        EXPECT_LE(trimLossFraction(values, w), tol + 1e-12);
    }
}

TEST(ProfileWindow, MonotoneInTolerance)
{
    util::Xoshiro256 rng(0xcafe);
    std::vector<uint16_t> values;
    for (int i = 0; i < 300; i++)
        values.push_back(static_cast<uint16_t>(rng.nextBounded(4096)));
    int prev_bits = 17;
    for (double tol : {0.0, 0.01, 0.05, 0.2}) {
        int bits = profileWindow(values, tol).bits();
        EXPECT_LE(bits, prev_bits);
        prev_bits = bits;
    }
}

/** Sweep the paper's Table II precisions as windows. */
class TableIIPrecisions : public ::testing::TestWithParam<int>
{
};

TEST_P(TableIIPrecisions, WindowConstructionIsValid)
{
    int p = GetParam();
    PrecisionWindow w{p - 1 + 2, 2}; // Anchored 2 bits up.
    if (w.msb <= 15) {
        EXPECT_TRUE(w.valid());
        EXPECT_EQ(w.bits(), p);
        EXPECT_EQ(essentialBits(w.mask()), p);
    }
}

INSTANTIATE_TEST_SUITE_P(Precisions, TableIIPrecisions,
                         ::testing::Values(5, 7, 8, 9, 10, 11, 12, 13));

} // namespace
} // namespace fixedpoint
} // namespace pra
