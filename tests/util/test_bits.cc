/**
 * @file
 * Tests for the inline bit counts (util/bits.h): popcount16 and
 * popcount32 must be exactly std::popcount, since every essential-bit
 * total the simulator prices is a sum of them.
 */

#include "util/bits.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/random.h"

namespace pra {
namespace util {
namespace {

TEST(Popcount16, MatchesStdPopcountOnEveryInput)
{
    for (uint32_t v = 0; v <= 0xffffu; v++)
        ASSERT_EQ(popcount16(static_cast<uint16_t>(v)),
                  std::popcount(static_cast<uint16_t>(v)))
            << v;
}

TEST(Popcount16, IsAConstantExpression)
{
    static_assert(popcount16(0) == 0);
    static_assert(popcount16(0xffff) == 16);
    static_assert(popcount16(0x8001) == 2);
}

TEST(Popcount32, MatchesStdPopcount)
{
    // Every 16-bit pattern in each half and across both halves, then
    // random words.
    for (uint32_t v = 0; v <= 0xffffu; v++)
        for (uint32_t word : {v, v << 16, v | (~v << 16), v * 0x10001u})
            ASSERT_EQ(popcount32(word), std::popcount(word)) << word;
    Xoshiro256 rng(0xb175);
    for (int i = 0; i < 100000; i++) {
        const auto word = static_cast<uint32_t>(rng.next());
        ASSERT_EQ(popcount32(word), std::popcount(word)) << word;
    }
    static_assert(popcount32(0xffffffffu) == 32);
}

} // namespace
} // namespace util
} // namespace pra
