/**
 * @file
 * Tests for 16-bit fixed-point bit utilities, including the
 * shift-and-add multiplier property the whole paper builds on.
 */

#include <gtest/gtest.h>

#include "fixedpoint/fixed_point.h"
#include "tests/fixedpoint/fixed_point_oracle.h"
#include "util/random.h"

namespace pra {
namespace fixedpoint {
namespace {

TEST(EssentialBits, KnownValues)
{
    EXPECT_EQ(essentialBits(0), 0);
    EXPECT_EQ(essentialBits(1), 1);
    EXPECT_EQ(essentialBits(0b101), 2);
    EXPECT_EQ(essentialBits(0xffff), 16);
    EXPECT_EQ(essentialBits(0x8000), 1);
}

TEST(BitPositions, MsbLsb)
{
    EXPECT_EQ(msbPosition(0), -1);
    EXPECT_EQ(lsbPosition(0), -1);
    EXPECT_EQ(msbPosition(1), 0);
    EXPECT_EQ(lsbPosition(1), 0);
    EXPECT_EQ(msbPosition(0b10110), 4);
    EXPECT_EQ(lsbPosition(0b10110), 1);
    EXPECT_EQ(msbPosition(0x8000), 15);
}

TEST(BitPositions, SignificantBits)
{
    EXPECT_EQ(significantBits(0), 0);
    EXPECT_EQ(significantBits(1), 1);
    EXPECT_EQ(significantBits(0xff), 8);
    EXPECT_EQ(significantBits(0x100), 9);
}

TEST(EssentialBitFraction, PaperFigure1Example)
{
    // Figure 1's value 10.101 in an 8-bit format: 3 essential bits of
    // 8 -> 37.5% over "all"; identical over non-zero.
    std::vector<uint16_t> values = {0b0101'0100};
    EXPECT_DOUBLE_EQ(essentialBitFraction(values, 8), 3.0 / 8.0);
    EXPECT_DOUBLE_EQ(essentialBitFractionNonZero(values, 8), 3.0 / 8.0);
}

TEST(EssentialBitFraction, ZerosDiluteAllButNotNz)
{
    std::vector<uint16_t> values = {0, 0, 0b11, 0b1};
    EXPECT_DOUBLE_EQ(essentialBitFraction(values, 16),
                     3.0 / (4.0 * 16.0));
    EXPECT_DOUBLE_EQ(essentialBitFractionNonZero(values, 16),
                     3.0 / (2.0 * 16.0));
}

TEST(EssentialBitFraction, EmptyInputs)
{
    std::vector<uint16_t> empty;
    EXPECT_EQ(essentialBitFraction(empty, 16), 0.0);
    EXPECT_EQ(essentialBitFractionNonZero(empty, 16), 0.0);
    std::vector<uint16_t> zeros = {0, 0};
    EXPECT_EQ(essentialBitFractionNonZero(zeros, 16), 0.0);
}

TEST(ZeroFraction, Basics)
{
    std::vector<uint16_t> values = {0, 1, 0, 2};
    EXPECT_DOUBLE_EQ(zeroFraction(values), 0.5);
    EXPECT_EQ(zeroFraction({}), 0.0);
}

TEST(ShiftAddMultiply, MatchesProductExhaustiveSmall)
{
    for (int s = -64; s <= 64; s += 3) {
        for (uint32_t n = 0; n < 256; n += 7) {
            EXPECT_EQ(shiftAddMultiply(static_cast<int16_t>(s),
                                       static_cast<uint16_t>(n)),
                      static_cast<int64_t>(s) * n);
        }
    }
}

TEST(ShiftAddMultiply, MatchesProductRandomFullRange)
{
    util::Xoshiro256 rng(0xabc);
    for (int i = 0; i < 20000; i++) {
        auto s = static_cast<int16_t>(rng.nextInRange(-32768, 32767));
        auto n = static_cast<uint16_t>(rng.nextBounded(65536));
        EXPECT_EQ(shiftAddMultiply(s, n), static_cast<int64_t>(s) * n);
    }
}

TEST(ShiftAddMultiply, ExtremesAndIdentities)
{
    EXPECT_EQ(shiftAddMultiply(12345, 0), 0);
    EXPECT_EQ(shiftAddMultiply(0, 0xffff), 0);
    EXPECT_EQ(shiftAddMultiply(1, 0xffff), 0xffff);
    EXPECT_EQ(shiftAddMultiply(-1, 0xffff), -0xffff);
    EXPECT_EQ(shiftAddMultiply(-32768, 0xffff),
              static_cast<int64_t>(-32768) * 0xffff);
}

/** Parameterized sweep: popcount equals the number of added terms. */
class EssentialBitWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(EssentialBitWidths, FractionBoundedByOne)
{
    int width = GetParam();
    util::Xoshiro256 rng(width);
    std::vector<uint16_t> values;
    uint16_t mask = static_cast<uint16_t>((1u << width) - 1);
    for (int i = 0; i < 500; i++)
        values.push_back(static_cast<uint16_t>(rng.next()) & mask);
    double f = essentialBitFraction(values, width);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_GE(essentialBitFractionNonZero(values, width), f);
}

INSTANTIATE_TEST_SUITE_P(Widths, EssentialBitWidths,
                         ::testing::Values(1, 4, 8, 12, 16));

} // namespace
} // namespace fixedpoint
} // namespace pra
