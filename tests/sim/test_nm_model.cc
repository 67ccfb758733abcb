/**
 * @file
 * Tests for the Neuron Memory access model (paper Section V-A4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "sim/nm_model.h"
#include "util/random.h"

namespace pra {
namespace sim {
namespace {

dnn::LayerSpec
strideLayer(int stride)
{
    dnn::LayerSpec spec;
    // Not `= "s"`: that trips GCC 12's -Wrestrict false positive
    // (GCC bug 105651).
    spec.name.assign(1, 's');
    spec.inputX = 64;
    spec.inputY = 64;
    spec.inputChannels = 32;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 64;
    spec.stride = stride;
    spec.pad = 0;
    spec.profiledPrecision = 8;
    return spec;
}

/** NM fetch cycles of pallet @p p at synapse set @p s. */
int
fetchCycles(const LayerTiling &tiling, int64_t p, int64_t s)
{
    std::vector<WindowCoord> columns;
    tiling.palletColumns(p, columns);
    return nmFetchCycles(tiling, columns, tiling.setCoord(s));
}

TEST(NmModel, UnitStrideFitsTwoRows)
{
    // "With unit stride the 256 neurons would be typically all stored
    // in the same NM row or at most over two adjacent NM rows."
    AccelConfig accel;
    LayerTiling tiling(strideLayer(1), accel);
    for (int64_t p = 0; p < std::min<int64_t>(8, tiling.numPallets());
         p++) {
        for (int64_t s = 0; s < tiling.numSynapseSets(); s += 3)
            EXPECT_LE(fetchCycles(tiling, p, s), 2);
    }
}

TEST(NmModel, LargerStrideSpreadsRows)
{
    AccelConfig accel;
    LayerTiling tiling1(strideLayer(1), accel);
    LayerTiling tiling4(strideLayer(4), accel);
    int max1 = 0;
    int max4 = 0;
    for (int64_t s = 0; s < 9; s++) {
        max1 = std::max(max1, fetchCycles(tiling1, 0, s));
        max4 = std::max(max4, fetchCycles(tiling4, 0, s));
    }
    EXPECT_GT(max4, max1);
}

TEST(NmModel, PaddingOnlyStepCostsOneCycle)
{
    AccelConfig accel;
    dnn::LayerSpec spec = strideLayer(1);
    spec.pad = 2;
    LayerTiling tiling(spec, accel);
    // First pallet, set (fy=0,fx=0): windows 0..15 read row -2 ->
    // mostly padding; cost is clamped at >= 1.
    EXPECT_GE(fetchCycles(tiling, 0, 0), 1);
}

TEST(NmModel, OverlapHidesFetchBehindProcessing)
{
    NmOverlapTracker tracker;
    EXPECT_EQ(tracker.step(10, 2), 0); // Fully hidden.
    EXPECT_EQ(tracker.step(1, 4), 3);  // 3 cycles exposed.
    EXPECT_EQ(tracker.totalStalls(), 3);
    EXPECT_EQ(tracker.step(4, 4), 0);
    EXPECT_EQ(tracker.totalStalls(), 3);
}

TEST(NmModel, NegativeCyclesPanics)
{
    NmOverlapTracker tracker;
    EXPECT_DEATH(tracker.step(-1, 0), "negative");
}

/**
 * The reference row count: every row any non-padding brick of the
 * step touches, sorted and deduplicated, clamped to one cycle.
 */
int
referenceFetchCycles(const LayerTiling &tiling,
                     std::span<const WindowCoord> columns,
                     const SynapseSetCoord &set)
{
    std::vector<int64_t> rows;
    for (const WindowCoord &w : columns) {
        const int64_t addr = tiling.brickNmAddress(w, set);
        if (addr < 0)
            continue;
        for (int64_t r = addr / AccelConfig::nmRowNeurons;
             r <= (addr + AccelConfig::neuronLanes - 1) /
                      AccelConfig::nmRowNeurons;
             r++)
            rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return std::max(1, static_cast<int>(rows.size()));
}

/** A random geometry: stride 1-4, pad 0-3, filters 1x1 to 11x11. */
dnn::LayerSpec
randomLayer(util::Xoshiro256 &rng, int trial)
{
    if (trial % 8 == 0)
        return dnn::LayerSpec::fullyConnected(
            "fc", 1 + static_cast<int>(rng.nextBounded(600)), 64);
    dnn::LayerSpec spec = strideLayer(1 + static_cast<int>(
                                              rng.nextBounded(4)));
    spec.pad = static_cast<int>(rng.nextBounded(4));
    spec.filterX = 1 + static_cast<int>(rng.nextBounded(11));
    spec.filterY = 1 + static_cast<int>(rng.nextBounded(11));
    spec.inputX = std::max(spec.filterX,
                           1 + static_cast<int>(rng.nextBounded(40)));
    spec.inputY = std::max(spec.filterY,
                           1 + static_cast<int>(rng.nextBounded(40)));
    spec.inputChannels = 1 + static_cast<int>(rng.nextBounded(70));
    return spec;
}

TEST(NmModel, RowCountMatchesSortedReferenceOnRandomGeometries)
{
    // One pass over the step's bricks counts the row changes; the
    // reference sorts and dedupes every row touched. They must agree
    // on every pallet (partial last ones included) and set, and the
    // rows must come in address order along the walk.
    util::Xoshiro256 rng(0xa11);
    for (int trial = 0; trial < 120; trial++) {
        const dnn::LayerSpec layer = randomLayer(rng, trial);
        ASSERT_TRUE(layer.valid()) << trial;
        AccelConfig accel;
        accel.windowsPerPallet = 1 + static_cast<int>(rng.nextBounded(32));
        LayerTiling tiling(layer, accel);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ": " << layer.inputX << "x"
                     << layer.inputY << "x" << layer.inputChannels
                     << " filter " << layer.filterX << "x"
                     << layer.filterY << " stride " << layer.stride
                     << " pad " << layer.pad << " pallet "
                     << accel.windowsPerPallet);
        std::vector<WindowCoord> columns;
        // The first pallets, the last (often partial) one, and a
        // sample between them.
        const int64_t pallets = tiling.numPallets();
        for (int64_t p = 0; p < pallets;
             p += p < 3 || p == pallets - 1
                      ? 1
                      : std::max<int64_t>(1, (pallets - 1 - p) / 2)) {
            tiling.palletColumns(p, columns);
            for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
                const SynapseSetCoord set = tiling.setCoord(s);
                int64_t last = -1;
                for (const WindowCoord &w : columns) {
                    const int64_t addr = tiling.brickNmAddress(w, set);
                    if (addr < 0)
                        continue;
                    EXPECT_GT(addr, last) << "pallet " << p;
                    last = addr;
                }
                EXPECT_EQ(nmFetchCycles(tiling, columns, set),
                          referenceFetchCycles(tiling, columns, set))
                    << "pallet " << p << " set " << s;
            }
        }
    }
}

/** Row spread grows roughly linearly with stride. */
class StrideRows : public ::testing::TestWithParam<int>
{
};

TEST_P(StrideRows, BoundedByStridePlusOne)
{
    int stride = GetParam();
    AccelConfig accel;
    LayerTiling tiling(strideLayer(stride), accel);
    for (int64_t s = 0; s < tiling.numSynapseSets(); s += 2) {
        int cycles = fetchCycles(tiling, 1, s);
        // 16 bricks spaced `stride` bricks apart cover at most
        // stride + 1 rows of 16 bricks each.
        EXPECT_LE(cycles, stride + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideRows,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace sim
} // namespace pra
