/**
 * @file
 * Tests for saturating uint64 arithmetic (util/saturating.h): the
 * serving layer leans on UINT64_MAX staying a fixed point of every
 * operation (kNeverFills / kNoFault are both that sentinel).
 */

#include "util/saturating.h"

#include <gtest/gtest.h>

namespace pra {
namespace util {
namespace {

constexpr uint64_t kMax = UINT64_C(0xffffffffffffffff);

/** a * b, clamped to UINT64_MAX instead of wrapping. */
constexpr uint64_t
saturatingMul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    return a > kMax / b ? kMax : a * b;
}

TEST(SaturatingAdd, PlainSumsAreExact)
{
    EXPECT_EQ(saturatingAdd(0, 0), 0u);
    EXPECT_EQ(saturatingAdd(1, 2), 3u);
    EXPECT_EQ(saturatingAdd(kMax - 1, 1), kMax);
}

TEST(SaturatingAdd, OverflowClampsInsteadOfWrapping)
{
    EXPECT_EQ(saturatingAdd(kMax, 1), kMax);
    EXPECT_EQ(saturatingAdd(kMax, kMax), kMax);
    EXPECT_EQ(saturatingAdd(kMax - 10, 11), kMax);
    // The sentinel is a fixed point: "never" plus anything is never.
    EXPECT_EQ(saturatingAdd(kMax, 0), kMax);
}

TEST(SaturatingMul, ClampsAndKeepsZeroAbsorbing)
{
    EXPECT_EQ(saturatingMul(0, kMax), 0u);
    EXPECT_EQ(saturatingMul(kMax, 0), 0u);
    EXPECT_EQ(saturatingMul(3, 5), 15u);
    EXPECT_EQ(saturatingMul(kMax, 2), kMax);
    EXPECT_EQ(saturatingMul(UINT64_C(1) << 32, UINT64_C(1) << 32),
              kMax);
}

TEST(SaturatingShl, ClampsHighBitsAndWideShifts)
{
    EXPECT_EQ(saturatingShl(0, 1000), 0u);
    EXPECT_EQ(saturatingShl(1, 3), 8u);
    EXPECT_EQ(saturatingShl(1, 63), UINT64_C(1) << 63);
    EXPECT_EQ(saturatingShl(1, 64), kMax);
    EXPECT_EQ(saturatingShl(2, 63), kMax);
    EXPECT_EQ(saturatingShl(kMax, 1), kMax);
}

} // namespace
} // namespace util
} // namespace pra
