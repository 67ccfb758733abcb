/**
 * @file
 * Tests for the oneffset representation (paper Section V-A1).
 */

#include <gtest/gtest.h>

#include "fixedpoint/fixed_point.h"
#include "fixedpoint/oneffset.h"
#include "tests/fixedpoint/fixed_point_oracle.h"
#include "util/random.h"

namespace pra {
namespace fixedpoint {
namespace {

TEST(Oneffset, PaperExampleFiveAndAHalfEquivalent)
{
    // Section V-A1: n = 0101.1b == (2, 0, -1); with our integer bit
    // numbering 0101'1b = 0b1011 = bits {0, 1, 3}.
    auto list = encodeOneffsets(0b1011);
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].pow, 0);
    EXPECT_EQ(list[1].pow, 1);
    EXPECT_EQ(list[2].pow, 3);
    EXPECT_FALSE(list[0].eon);
    EXPECT_FALSE(list[1].eon);
    EXPECT_TRUE(list[2].eon);
}

TEST(Oneffset, PaperExample101)
{
    // n = 101b is represented as ((0010,0)(0000,1)) in the paper's
    // MSB-first notation; we emit LSB-first: (0, eon=0), (2, eon=1).
    auto list = encodeOneffsets(0b101);
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0].pow, 0);
    EXPECT_EQ(list[1].pow, 2);
    EXPECT_TRUE(list[1].eon);
}

TEST(Oneffset, ZeroNeuronIsSingleNullEntry)
{
    auto list = encodeOneffsets(0);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_FALSE(list[0].valid);
    EXPECT_TRUE(list[0].eon);
    EXPECT_EQ(decodeOneffsets(list), 0);
}

TEST(Oneffset, WorstCaseSixteenEntries)
{
    auto list = encodeOneffsets(0xffff);
    EXPECT_EQ(list.size(), 16u);
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(list[i].pow, i);
}

TEST(Oneffset, RoundTripExhaustive)
{
    // Every 16-bit pattern decodes back to itself.
    for (uint32_t v = 0; v <= 0xffff; v++) {
        auto list = encodeOneffsets(static_cast<uint16_t>(v));
        EXPECT_EQ(decodeOneffsets(list), v);
        EXPECT_EQ(static_cast<int>(list.size()),
                  std::max(1, essentialBits(static_cast<uint16_t>(v))));
        EXPECT_TRUE(list.back().eon);
    }
}

TEST(Oneffset, SumOfPowersProperty)
{
    util::Xoshiro256 rng(0x0ff5);
    for (int i = 0; i < 5000; i++) {
        auto n = static_cast<uint16_t>(rng.nextBounded(65536));
        int64_t sum = 0;
        for (const auto &entry : encodeOneffsets(n))
            if (entry.valid)
                sum += int64_t{1} << entry.pow;
        EXPECT_EQ(sum, n);
    }
}

TEST(Oneffset, AscendingOrderProperty)
{
    util::Xoshiro256 rng(0x0ff6);
    for (int i = 0; i < 5000; i++) {
        auto n = static_cast<uint16_t>(rng.nextBounded(65536));
        auto list = encodeOneffsets(n);
        for (size_t k = 1; k < list.size(); k++)
            EXPECT_LT(list[k - 1].pow, list[k].pow);
    }
}

TEST(OneffsetStream, MatchesBatchEncoding)
{
    util::Xoshiro256 rng(0x5717);
    for (int i = 0; i < 2000; i++) {
        auto n = static_cast<uint16_t>(rng.nextBounded(65536));
        auto expected = encodeOneffsets(n);
        OneffsetStream stream(n);
        for (const auto &want : expected) {
            EXPECT_FALSE(stream.exhausted());
            EXPECT_EQ(stream.next(), want);
        }
        EXPECT_TRUE(stream.exhausted());
    }
}

TEST(OneffsetStream, ExhaustedEmitsNullPadding)
{
    OneffsetStream stream(0b1);
    stream.next();
    EXPECT_TRUE(stream.exhausted());
    Oneffset pad = stream.next();
    EXPECT_FALSE(pad.valid);
    EXPECT_TRUE(pad.eon);
}

TEST(OneffsetStream, RemainingCountsDown)
{
    OneffsetStream stream(0b1011);
    EXPECT_EQ(stream.remaining(), 3);
    stream.next();
    EXPECT_EQ(stream.remaining(), 2);
    stream.next();
    stream.next();
    EXPECT_EQ(stream.remaining(), 0);
}

TEST(OneffsetStream, ReloadDiscardsPending)
{
    OneffsetStream stream(0xffff);
    stream.next();
    stream.load(0b10);
    Oneffset entry = stream.next();
    EXPECT_EQ(entry.pow, 1);
    EXPECT_TRUE(entry.eon);
    EXPECT_TRUE(stream.exhausted());
}

TEST(OneffsetStorage, CanExceedSixteenBits)
{
    // Section V-A1: the explicit representation may need more bits
    // than the positional one, which is why it is not a storage
    // format. 4 or more set bits -> 5 bits/entry >= 20 bits.
    EXPECT_EQ(oneffsetStorageBits(0), 5);
    EXPECT_EQ(oneffsetStorageBits(0b1), 5);
    EXPECT_EQ(oneffsetStorageBits(0b1111), 20);
    EXPECT_EQ(oneffsetStorageBits(0xffff), 80);
}

TEST(OneffsetDecode, RejectsMalformedLists)
{
    // eon not on last entry.
    std::vector<Oneffset> bad = {{0, true, true}, {1, true, true}};
    EXPECT_DEATH(decodeOneffsets(bad), "eon");
    // Duplicate power.
    std::vector<Oneffset> dup = {{3, false, true}, {3, true, true}};
    EXPECT_DEATH(decodeOneffsets(dup), "duplicate");
    // Empty list.
    EXPECT_DEATH(decodeOneffsets({}), "empty");
}

} // namespace
} // namespace fixedpoint
} // namespace pra
