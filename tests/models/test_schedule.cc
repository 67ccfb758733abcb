/**
 * @file
 * Tests for the 2-stage-shifting brick schedule (paper Section V-D),
 * including a reconstruction of Figure 7b's cycle-by-cycle example.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <span>
#include <vector>

#include "models/pragmatic/schedule.h"
#include "util/random.h"

namespace pra {
namespace models {
namespace {

TEST(Schedule, EmptyAndZeroBricks)
{
    std::vector<uint16_t> none;
    EXPECT_EQ(brickScheduleCycles(none, 2), 0);
    std::vector<uint16_t> zeros(16, 0);
    EXPECT_EQ(brickScheduleCycles(zeros, 2), 0);
    EXPECT_EQ(brickScheduleTrace(zeros, 2).numCycles(), 0);
}

TEST(Schedule, SingleLaneIsPopcount)
{
    // One neuron: one oneffset per cycle regardless of L (its head is
    // always the minimum).
    for (int l = 0; l <= 4; l++) {
        std::vector<uint16_t> brick = {0b1011'0101};
        EXPECT_EQ(brickScheduleCycles(brick, l), 5) << l;
    }
}

TEST(Schedule, Figure7bExample)
{
    // Figure 7b behaviour with L == 2: cycle 1 processes oneffsets
    // (1, 0) and stalls the lane at 4 (diff 4 >= 2^2); cycle 2's
    // minimum is 4 with first-stage shifts (2, 3, 0); the third
    // neuron finishes alone in cycle 4.
    std::vector<uint16_t> brick = {
        static_cast<uint16_t>((1u << 1) | (1u << 6) | (1u << 8)),
        static_cast<uint16_t>((1u << 0) | (1u << 7)),
        static_cast<uint16_t>((1u << 4) | (1u << 8) | (1u << 12)),
    };
    ScheduleTrace trace = brickScheduleTrace(brick, 2);
    ASSERT_EQ(trace.numCycles(), 4);

    EXPECT_EQ(trace.cycles[0].secondStageShift, 0);
    EXPECT_EQ(trace.cycles[0].firedLanes, 0b011);
    EXPECT_EQ(trace.cycles[0].firstStageShift[0], 1);
    EXPECT_EQ(trace.cycles[0].firstStageShift[1], 0);

    EXPECT_EQ(trace.cycles[1].secondStageShift, 4);
    EXPECT_EQ(trace.cycles[1].firedLanes, 0b111);
    EXPECT_EQ(trace.cycles[1].firstStageShift[0], 2);
    EXPECT_EQ(trace.cycles[1].firstStageShift[1], 3);
    EXPECT_EQ(trace.cycles[1].firstStageShift[2], 0);

    EXPECT_EQ(trace.cycles[2].secondStageShift, 8);
    EXPECT_EQ(trace.cycles[2].firedLanes, 0b101);

    EXPECT_EQ(trace.cycles[3].secondStageShift, 12);
    EXPECT_EQ(trace.cycles[3].firedLanes, 0b100);
}

TEST(Schedule, SingleStageIsMaxPopcount)
{
    util::Xoshiro256 rng(0x1111);
    for (int trial = 0; trial < 2000; trial++) {
        std::vector<uint16_t> brick(16);
        int max_pop = 0;
        for (auto &n : brick) {
            n = static_cast<uint16_t>(rng.nextBounded(65536));
            max_pop = std::max(max_pop, std::popcount(n));
        }
        EXPECT_EQ(brickScheduleCycles(brick, 4), max_pop);
    }
}

TEST(Schedule, ZeroBitFirstStageIsDistinctOffsets)
{
    util::Xoshiro256 rng(0x2222);
    for (int trial = 0; trial < 2000; trial++) {
        std::vector<uint16_t> brick(16);
        uint16_t unified = 0;
        for (auto &n : brick) {
            n = static_cast<uint16_t>(rng.nextBounded(65536));
            unified |= n;
        }
        EXPECT_EQ(brickScheduleCycles(brick, 0), std::popcount(unified));
    }
}

TEST(Schedule, MonotoneInFirstStageWidth)
{
    util::Xoshiro256 rng(0x3333);
    for (int trial = 0; trial < 2000; trial++) {
        std::vector<uint16_t> brick(16);
        for (auto &n : brick)
            n = static_cast<uint16_t>(rng.nextBounded(65536));
        int prev = 17;
        for (int l = 0; l <= 4; l++) {
            int cycles = brickScheduleCycles(brick, l);
            EXPECT_LE(cycles, prev);
            prev = cycles;
        }
    }
}

TEST(Schedule, BoundedBySixteenAndBelowByMaxPopcount)
{
    // Never slower than DaDN's 16 cycles per pallet step
    // (Section V-A3) and never faster than the busiest lane.
    util::Xoshiro256 rng(0x4444);
    for (int trial = 0; trial < 2000; trial++) {
        std::vector<uint16_t> brick(16);
        int max_pop = 0;
        for (auto &n : brick) {
            n = static_cast<uint16_t>(rng.nextBounded(65536));
            max_pop = std::max(max_pop, std::popcount(n));
        }
        for (int l = 0; l <= 4; l++) {
            int cycles = brickScheduleCycles(brick, l);
            EXPECT_LE(cycles, 16);
            EXPECT_GE(cycles, max_pop);
        }
    }
}

TEST(Schedule, WorstCaseAllOnes)
{
    std::vector<uint16_t> brick(16, 0xffff);
    for (int l = 0; l <= 4; l++)
        EXPECT_EQ(brickScheduleCycles(brick, l), 16);
}

TEST(Schedule, TraceConsumesEveryBitExactlyOnce)
{
    util::Xoshiro256 rng(0x5555);
    for (int trial = 0; trial < 300; trial++) {
        std::vector<uint16_t> brick(16);
        for (auto &n : brick)
            n = static_cast<uint16_t>(rng.nextBounded(65536));
        int l = static_cast<int>(rng.nextBounded(5));
        ScheduleTrace trace = brickScheduleTrace(brick, l);
        // Rebuild each lane's value from the trace.
        std::vector<uint16_t> rebuilt(16, 0);
        for (const auto &cycle : trace.cycles) {
            for (int lane = 0; lane < 16; lane++) {
                if (!(cycle.firedLanes >> lane & 1))
                    continue;
                int pos = cycle.secondStageShift +
                          cycle.firstStageShift[lane];
                uint16_t bit = static_cast<uint16_t>(1u << pos);
                EXPECT_EQ(rebuilt[lane] & bit, 0) << "double fire";
                rebuilt[lane] |= bit;
            }
        }
        for (int lane = 0; lane < 16; lane++)
            EXPECT_EQ(rebuilt[lane], brick[lane]);
    }
}

TEST(Schedule, SecondStageShiftsStrictlyIncrease)
{
    util::Xoshiro256 rng(0x6666);
    for (int trial = 0; trial < 300; trial++) {
        std::vector<uint16_t> brick(16);
        for (auto &n : brick)
            n = static_cast<uint16_t>(rng.nextBounded(65536));
        for (int l = 0; l <= 4; l++) {
            ScheduleTrace trace = brickScheduleTrace(brick, l);
            for (size_t c = 1; c < trace.cycles.size(); c++)
                EXPECT_GT(trace.cycles[c].secondStageShift,
                          trace.cycles[c - 1].secondStageShift);
        }
    }
}

TEST(Schedule, FirstStageShiftsWithinReach)
{
    util::Xoshiro256 rng(0x7777);
    for (int trial = 0; trial < 300; trial++) {
        std::vector<uint16_t> brick(16);
        for (auto &n : brick)
            n = static_cast<uint16_t>(rng.nextBounded(65536));
        for (int l = 0; l <= 4; l++) {
            for (const auto &cycle : brickScheduleTrace(brick, l)
                                         .cycles) {
                for (int lane = 0; lane < 16; lane++) {
                    if (cycle.firedLanes >> lane & 1) {
                        EXPECT_LT(cycle.firstStageShift[lane], 1 << l);
                    }
                }
            }
        }
    }
}

/** Every non-empty set of the intermediate widths 1..3. */
std::vector<ScheduleWidths>
allWidthSets()
{
    std::vector<ScheduleWidths> sets;
    for (ScheduleWidths w = 1; w <= kAllScheduleWidths >> 1; w++)
        sets.push_back(w << 1);
    return sets;
}

/**
 * Run the row kernel at @p widths into one fresh plane per width
 * (0xcc-filled, so an unwritten brick shows); widths outside the set
 * get an empty span.
 */
std::array<std::vector<uint8_t>, 3>
runRow(std::span<const uint16_t> row, int columns, int channels,
       ScheduleWidths widths)
{
    const size_t bricks =
        static_cast<size_t>(columns) * ((channels + 15) / 16);
    std::array<std::vector<uint8_t>, 3> planes;
    std::array<std::span<uint8_t>, 3> out;
    for (int l = 1; l <= 3; l++) {
        if (!(widths & scheduleWidth(l)))
            continue;
        planes[l - 1].assign(bricks, 0xcc);
        out[l - 1] = planes[l - 1];
    }
    scheduleCyclesRow(row, columns, channels, widths, out);
    return planes;
}

TEST(ScheduleRow, EveryWidthSetMatchesSerialKernelOnRandomRows)
{
    // The batched row kernel is the serial kernel expressed
    // branchlessly, with every width of its set drained in lock step
    // over one brick load: every brick of every random row must agree
    // with brickScheduleCycles at each width of every width set,
    // including partial last bricks (1..40 channels, so channels not
    // a multiple of 16) and single-channel columns.
    util::Xoshiro256 rng(0x8888);
    for (int trial = 0; trial < 200; trial++) {
        int columns = 1 + static_cast<int>(rng.nextBounded(7));
        int channels = 1 + static_cast<int>(rng.nextBounded(40));
        int bricks = (channels + 15) / 16;
        std::vector<uint16_t> row(
            static_cast<size_t>(columns) * channels);
        // Mix dense and sparse columns so orPop == maxPop bricks,
        // genuinely divergent bricks and all-zero bricks all occur.
        const double zero = trial % 4 == 0 ? 0.9 : 0.3;
        for (auto &n : row)
            n = rng.nextBool(zero)
                    ? 0
                    : static_cast<uint16_t>(rng.nextBounded(65536));
        for (ScheduleWidths widths : allWidthSets()) {
            auto planes = runRow(row, columns, channels, widths);
            for (int l = 1; l <= 3; l++) {
                if (!(widths & scheduleWidth(l))) {
                    EXPECT_TRUE(planes[l - 1].empty());
                    continue;
                }
                for (int x = 0; x < columns; x++) {
                    for (int b = 0; b < bricks; b++) {
                        int lanes = std::min(16, channels - b * 16);
                        std::span<const uint16_t> brick(
                            row.data() +
                                static_cast<size_t>(x) * channels +
                                b * 16,
                            static_cast<size_t>(lanes));
                        EXPECT_EQ(planes[l - 1][static_cast<size_t>(x) *
                                                    bricks +
                                                b],
                                  brickScheduleCycles(brick, l))
                            << "columns=" << columns
                            << " channels=" << channels << " x=" << x
                            << " brick=" << b << " l=" << l
                            << " widths=" << widths;
                    }
                }
            }
        }
    }
}

TEST(ScheduleRow, ZeroAndWorstCaseRows)
{
    // All-zero bricks take 0 cycles and 0xffff bricks the full 16 at
    // every width of every set, partial last bricks included.
    std::vector<uint16_t> zeros(3 * 20, 0);
    std::vector<uint16_t> ones(2 * 20, 0xffff);
    for (ScheduleWidths widths : allWidthSets()) {
        auto none = runRow(zeros, 3, 20, widths);
        auto worst = runRow(ones, 2, 20, widths);
        for (int l = 1; l <= 3; l++) {
            if (!(widths & scheduleWidth(l)))
                continue;
            EXPECT_EQ(none[l - 1], std::vector<uint8_t>(3 * 2, 0))
                << widths;
            EXPECT_EQ(worst[l - 1], std::vector<uint8_t>(2 * 2, 16))
                << widths;
        }
    }
}

TEST(ScheduleRow, RejectsBadArguments)
{
    std::vector<uint16_t> row(32, 1);
    std::vector<uint8_t> out(2);
    const std::array<std::span<uint8_t>, 3> at2 = {
        std::span<uint8_t>(), std::span<uint8_t>(out),
        std::span<uint8_t>()};
    // Widths outside 1..3, or none at all.
    EXPECT_DEATH(scheduleCyclesRow(row, 2, 16, scheduleWidth(0), at2),
                 "first-stage");
    EXPECT_DEATH(scheduleCyclesRow(row, 2, 16, scheduleWidth(4), at2),
                 "first-stage");
    EXPECT_DEATH(scheduleCyclesRow(row, 2, 16, 0, at2), "first-stage");
    EXPECT_DEATH(scheduleCyclesRow(row, 0, 16, scheduleWidth(2), at2),
                 "empty row");
    // Row or output extents that disagree with columns x channels,
    // and a width of the set with no output.
    EXPECT_DEATH(scheduleCyclesRow(row, 3, 16, scheduleWidth(2), at2),
                 "row extent");
    std::vector<uint8_t> short_out(1);
    EXPECT_DEATH(scheduleCyclesRow(row, 2, 16, scheduleWidth(2),
                                   {std::span<uint8_t>(),
                                    std::span<uint8_t>(short_out),
                                    std::span<uint8_t>()}),
                 "output extent");
    EXPECT_DEATH(scheduleCyclesRow(row, 2, 16,
                                   scheduleWidth(2) | scheduleWidth(3),
                                   at2),
                 "output extent");
}

TEST(Schedule, RejectsBadArguments)
{
    std::vector<uint16_t> too_many(17, 1);
    EXPECT_DEATH(brickScheduleCycles(too_many, 2), "16 lanes");
    std::vector<uint16_t> brick(4, 1);
    EXPECT_DEATH(brickScheduleCycles(brick, 5), "first-stage");
    EXPECT_DEATH(brickScheduleCycles(brick, -1), "first-stage");
}

/** Parameterized: schedules shrink as values lose essential bits. */
class ScheduleDensity : public ::testing::TestWithParam<int>
{
};

TEST_P(ScheduleDensity, SparserValuesNeverSlower)
{
    int keep_bits = GetParam();
    util::Xoshiro256 rng(keep_bits * 101);
    uint16_t mask = static_cast<uint16_t>((1u << keep_bits) - 1);
    for (int trial = 0; trial < 500; trial++) {
        std::vector<uint16_t> dense(16);
        std::vector<uint16_t> sparse(16);
        for (int i = 0; i < 16; i++) {
            dense[i] = static_cast<uint16_t>(rng.nextBounded(65536));
            sparse[i] = static_cast<uint16_t>(dense[i] & mask);
        }
        for (int l = 0; l <= 4; l++)
            EXPECT_LE(brickScheduleCycles(sparse, l),
                      brickScheduleCycles(dense, l));
    }
}

INSTANTIATE_TEST_SUITE_P(KeepBits, ScheduleDensity,
                         ::testing::Values(2, 5, 8, 11, 14));

} // namespace
} // namespace models
} // namespace pra
