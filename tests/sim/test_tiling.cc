/**
 * @file
 * Tests for window/pallet/synapse-set tiling.
 */

#include <gtest/gtest.h>

#include <set>

#include "dnn/model_zoo.h"
#include "sim/tiling.h"

namespace pra {
namespace sim {
namespace {

dnn::LayerSpec
layer13x13()
{
    dnn::LayerSpec spec;
    // Not `= "l"`: that trips GCC 12's -Wrestrict false positive
    // (GCC bug 105651).
    spec.name.assign(1, 'l');
    spec.inputX = 13;
    spec.inputY = 13;
    spec.inputChannels = 48;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 384;
    spec.stride = 1;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    return spec;
}

TEST(Tiling, PalletAndSetCounts)
{
    AccelConfig accel;
    LayerTiling tiling(layer13x13(), accel);
    // 13*13 = 169 windows -> ceil(169/16) = 11 pallets.
    EXPECT_EQ(tiling.numPallets(), 11);
    // 3*3 filter positions x 3 channel bricks.
    EXPECT_EQ(tiling.numSynapseSets(), 9 * 3);
    // 384 filters -> 2 passes of 256.
    EXPECT_EQ(tiling.passes(), 2);
}

TEST(Tiling, WindowCoordRowMajor)
{
    AccelConfig accel;
    LayerTiling tiling(layer13x13(), accel);
    EXPECT_EQ(tiling.windowCoord(0).x, 0);
    EXPECT_EQ(tiling.windowCoord(0).y, 0);
    EXPECT_EQ(tiling.windowCoord(12).x, 12);
    EXPECT_EQ(tiling.windowCoord(13).x, 0);
    EXPECT_EQ(tiling.windowCoord(13).y, 1);
}

TEST(Tiling, EveryWindowInExactlyOnePallet)
{
    AccelConfig accel;
    LayerTiling tiling(layer13x13(), accel);
    std::set<int64_t> seen;
    for (int64_t p = 0; p < tiling.numPallets(); p++) {
        for (int c = 0; c < accel.windowsPerPallet; c++) {
            int64_t w = tiling.windowIndex(p, c);
            if (w >= 0) {
                EXPECT_TRUE(seen.insert(w).second) << w;
            }
        }
    }
    EXPECT_EQ(static_cast<int64_t>(seen.size()),
              layer13x13().windows());
}

TEST(Tiling, PartialLastPallet)
{
    AccelConfig accel;
    LayerTiling tiling(layer13x13(), accel);
    EXPECT_EQ(tiling.windowsInPallet(0), 16);
    // 169 = 10*16 + 9.
    EXPECT_EQ(tiling.windowsInPallet(10), 9);
    EXPECT_EQ(tiling.windowIndex(10, 9), -1);
    EXPECT_EQ(tiling.windowIndex(10, 8), 168);
}

TEST(Tiling, SetCoordOrderAndCoverage)
{
    AccelConfig accel;
    LayerTiling tiling(layer13x13(), accel);
    std::set<std::tuple<int, int, int>> seen;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        SynapseSetCoord c = tiling.setCoord(s);
        EXPECT_GE(c.fx, 0);
        EXPECT_LT(c.fx, 3);
        EXPECT_GE(c.fy, 0);
        EXPECT_LT(c.fy, 3);
        EXPECT_EQ(c.brickI % 16, 0);
        seen.insert({c.fy, c.fx, c.brickI});
    }
    EXPECT_EQ(static_cast<int64_t>(seen.size()),
              tiling.numSynapseSets());
    // Channel bricks iterate fastest.
    EXPECT_EQ(tiling.setCoord(0).brickI, 0);
    EXPECT_EQ(tiling.setCoord(1).brickI, 16);
    EXPECT_EQ(tiling.setCoord(3).fx, 1);
}

TEST(Tiling, GatherBrickReadsInput)
{
    AccelConfig accel;
    auto spec = layer13x13();
    LayerTiling tiling(spec, accel);
    dnn::NeuronTensor input(13, 13, 48);
    for (int i = 0; i < 48; i++)
        input.at(2, 3, i) = static_cast<uint16_t>(100 + i);
    // Window (2,2) with pad 1, set (fy=2, fx=1, brick 16) reads input
    // (2*1-1+1, 2*1-1+2) == (2, 3), channels 16..31.
    WindowCoord w{2, 2};
    SynapseSetCoord s{2, 1, 16};
    auto brick = tiling.gatherBrick(input, w, s);
    for (int lane = 0; lane < 16; lane++)
        EXPECT_EQ(brick[lane], 116 + lane);
}

TEST(Tiling, GatherBrickPaddingIsZero)
{
    AccelConfig accel;
    auto spec = layer13x13();
    LayerTiling tiling(spec, accel);
    dnn::NeuronTensor input(13, 13, 48);
    for (auto &v : input.flat())
        v = 0xffff;
    // Window (0,0), set (fy=0, fx=0) reads (-1,-1): all padding.
    auto brick = tiling.gatherBrick(input, {0, 0}, {0, 0, 0});
    for (uint16_t v : brick)
        EXPECT_EQ(v, 0);
}

TEST(Tiling, GatherBrickShortChannels)
{
    AccelConfig accel;
    dnn::LayerSpec spec = layer13x13();
    spec.inputChannels = 20; // Second brick has only 4 lanes.
    LayerTiling tiling(spec, accel);
    dnn::NeuronTensor input(13, 13, 20);
    for (auto &v : input.flat())
        v = 9;
    auto brick = tiling.gatherBrick(input, {1, 1}, {1, 1, 16});
    for (int lane = 0; lane < 4; lane++)
        EXPECT_EQ(brick[lane], 9);
    for (int lane = 4; lane < 16; lane++)
        EXPECT_EQ(brick[lane], 0);
}

TEST(Tiling, NmAddressBrickInterleaved)
{
    AccelConfig accel;
    auto spec = layer13x13();
    LayerTiling tiling(spec, accel);
    // Adjacent windows at the same set coordinate sit 16 neurons
    // apart (Section V-A4's unit-stride contiguity).
    SynapseSetCoord s{1, 1, 16};
    int64_t a0 = tiling.brickNmAddress({3, 3}, s);
    int64_t a1 = tiling.brickNmAddress({4, 3}, s);
    EXPECT_EQ(a1 - a0, 16);
    // Padding bricks have no address.
    EXPECT_EQ(tiling.brickNmAddress({0, 0}, {0, 0, 0}), -1);
}

TEST(Tiling, SmallFilterCountSinglePass)
{
    AccelConfig accel;
    auto spec = layer13x13();
    spec.numFilters = 96;
    LayerTiling tiling(spec, accel);
    EXPECT_EQ(tiling.passes(), 1);
}

TEST(Tiling, RejectsInvalidLayer)
{
    AccelConfig accel;
    dnn::LayerSpec bad;
    EXPECT_DEATH(LayerTiling(bad, accel), "invalid layer");
}

} // namespace
} // namespace sim
} // namespace pra
