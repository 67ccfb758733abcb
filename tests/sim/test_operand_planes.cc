/**
 * @file
 * Tests for the shared operand-plane layer: the packed
 * activation-side summaries (per-brick and per-lane) against direct
 * tensor reductions, and the weight-side planes against a manual
 * materialization of the code streams — including the propagated
 * (requantized reference weights) build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/propagate.h"
#include "dnn/weight_synth.h"
#include "sim/operand_planes.h"
#include "util/random.h"

namespace pra {
namespace sim {
namespace {

dnn::NeuronTensor
randomTensor(int sx, int sy, int si, uint64_t seed)
{
    dnn::NeuronTensor t(sx, sy, si);
    util::Xoshiro256 rng(seed);
    for (auto &v : t.flat())
        v = static_cast<uint16_t>(rng.nextBounded(65536));
    return t;
}

dnn::LayerSpec
weightLayer()
{
    dnn::LayerSpec spec;
    spec.name = "planes-ref";
    spec.inputX = 5;
    spec.inputY = 5;
    spec.inputChannels = 24; // 1.5 bricks: partial-lane edge case.
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 10;
    spec.stride = 1;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    spec.profiledWeightPrecision = 9;
    return spec;
}

/** Every filter's codes, FilterTensor flat order, filter by filter. */
using FilterCodes = std::vector<std::vector<uint16_t>>;

FilterCodes
syntheticCodes(const dnn::LayerSpec &layer)
{
    FilterCodes codes(static_cast<size_t>(layer.numFilters),
                      std::vector<uint16_t>(static_cast<size_t>(
                          layer.synapsesPerFilter())));
    for (int f = 0; f < layer.numFilters; f++)
        dnn::synthesizeWeightCodes(layer, f,
                                   codes[static_cast<size_t>(f)]);
    return codes;
}

/**
 * The propagated weight codes re-derived independently: the reference
 * filters the forward pass convolves, requantized by magnitude into
 * the profiled weight window.
 */
FilterCodes
requantizedReferenceCodes(const dnn::LayerSpec &layer,
                          uint64_t synth_seed)
{
    std::vector<dnn::FilterTensor> filters = dnn::synthesizeFilters(
        layer, synth_seed ^ dnn::kPropagationFilterSalt);
    EXPECT_EQ(filters.size(), static_cast<size_t>(layer.numFilters));
    int max_mag = 0;
    for (const auto &f : filters)
        for (int16_t w : f.flat())
            max_mag = std::max(max_mag, std::abs(w));
    EXPECT_GT(max_mag, 0);
    const int max_code = (1 << layer.profiledWeightPrecision) - 1;
    const double scale = static_cast<double>(max_code) / max_mag;
    FilterCodes codes;
    for (const auto &f : filters) {
        std::vector<uint16_t> &out = codes.emplace_back();
        for (int fy = 0; fy < layer.filterY; fy++)
            for (int fx = 0; fx < layer.filterX; fx++)
                for (int c = 0; c < layer.inputChannels; c++)
                    out.push_back(static_cast<uint16_t>(std::llround(
                        std::abs(f.at(fx, fy, c)) * scale)));
    }
    return codes;
}

/**
 * Naive weight planes: every (set, lane) cell reduced on its own,
 * straight from the set-coordinate definition (set s is kernel
 * position s / bricks and channel brick s % bricks; lane l covers
 * channel brick * kBrickSize + l, and lanes past the channel count
 * stay zero).
 */
WeightBrickPlanes
naiveWeightPlanes(const dnn::LayerSpec &layer, const FilterCodes &codes)
{
    const int lanes = dnn::kBrickSize;
    const int channels = layer.inputChannels;
    const int bricks = (channels + lanes - 1) / lanes;
    WeightBrickPlanes ref;
    ref.numSets = layer.filterX * layer.filterY * bricks;
    const size_t cells = static_cast<size_t>(ref.numSets) * lanes;
    ref.sumPop.assign(cells, 0);
    ref.maxPop.assign(cells, 0);
    for (int s = 0; s < ref.numSets; s++)
        for (int l = 0; l < lanes; l++) {
            const int c = (s % bricks) * lanes + l;
            if (c >= channels)
                continue;
            const size_t at = static_cast<size_t>(s / bricks) * channels +
                              static_cast<size_t>(c);
            const size_t idx = ref.index(s, l);
            for (const auto &filter : codes) {
                const int p = std::popcount(filter[at]);
                ref.sumPop[idx] += p;
                ref.maxPop[idx] = static_cast<uint8_t>(
                    std::max<int>(ref.maxPop[idx], p));
            }
        }
    return ref;
}

/** Both planes of @p planes equal @p ref; padding lanes are 0. */
void
expectPlanesEqual(const WeightBrickPlanes &planes,
                  const WeightBrickPlanes &ref, int channels)
{
    const int lanes = dnn::kBrickSize;
    ASSERT_EQ(planes.numSets, ref.numSets);
    EXPECT_EQ(planes.sumPop, ref.sumPop);
    EXPECT_EQ(planes.maxPop, ref.maxPop);
    const int bricks = (channels + lanes - 1) / lanes;
    int padding = 0;
    for (int s = 0; s < planes.numSets; s++)
        for (int l = 0; l < lanes; l++) {
            if ((s % bricks) * lanes + l < channels)
                continue;
            padding++;
            const size_t idx = planes.index(s, l);
            EXPECT_EQ(planes.sumPop[idx], 0) << s << ',' << l;
            EXPECT_EQ(planes.maxPop[idx], 0) << s << ',' << l;
        }
    const int per_position = bricks * lanes - channels;
    EXPECT_EQ(padding, planes.numSets / bricks * per_position);
}

TEST(OperandPlanes, BrickSummariesMatchDirectReduction)
{
    // 24 channels: brick 1 has only 8 real lanes.
    dnn::NeuronTensor t = randomTensor(4, 3, 24, 0x9a11);
    BrickPlanes planes = buildBrickPlanes(t);
    ASSERT_EQ(planes.sizeX, 4);
    ASSERT_EQ(planes.sizeY, 3);
    ASSERT_EQ(planes.bricksPerColumn, 2);
    for (int y = 0; y < 3; y++)
        for (int x = 0; x < 4; x++)
            for (int b = 0; b < 2; b++) {
                int lanes = std::min(dnn::kBrickSize, 24 - b * 16);
                int32_t pop = 0;
                int max_pop = 0, non_zero = 0;
                uint16_t or_mask = 0;
                for (int l = 0; l < lanes; l++) {
                    uint16_t v = t.at(x, y, b * 16 + l);
                    int p = std::popcount(v);
                    pop += p;
                    max_pop = std::max(max_pop, p);
                    non_zero += v != 0;
                    or_mask |= v;
                }
                size_t idx = planes.index(x, y, b);
                EXPECT_EQ(planes.pop[idx], pop);
                EXPECT_EQ(planes.maxPop[idx], max_pop);
                EXPECT_EQ(planes.nonZero[idx], non_zero);
                EXPECT_EQ(planes.orMask[idx], or_mask);
                // orPop is definitionally the popcount of orMask.
                EXPECT_EQ(planes.orPop[idx],
                          std::popcount(planes.orMask[idx]));
            }
}

TEST(OperandPlanes, LanePopPlanesMatchTensorPopcounts)
{
    dnn::NeuronTensor t = randomTensor(3, 4, 24, 0x9a12);
    LanePopPlanes planes = buildLanePopPlanes(t);
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 3; x++)
            for (int b = 0; b < 2; b++)
                for (int l = 0; l < dnn::kBrickSize; l++) {
                    int want = b * 16 + l < 24
                                   ? std::popcount(
                                         t.at(x, y, b * 16 + l))
                                   : 0;
                    EXPECT_EQ(planes.pop[planes.index(x, y, b, l)],
                              want);
                }
}

TEST(OperandPlanes, SyntheticWeightPlanesMatchMaterializedCodes)
{
    dnn::LayerSpec layer = weightLayer();
    WeightBrickPlanes planes = syntheticWeightPlanes(layer);
    ASSERT_EQ(planes.numSets, layer.filterX * layer.filterY * 2);
    expectPlanesEqual(planes,
                      naiveWeightPlanes(layer, syntheticCodes(layer)),
                      layer.inputChannels);

    // Determinism: a second build is identical.
    WeightBrickPlanes again = syntheticWeightPlanes(layer);
    EXPECT_EQ(planes.sumPop, again.sumPop);
    EXPECT_EQ(planes.maxPop, again.maxPop);
}

TEST(OperandPlanes, PropagatedPlanesMatchRequantizedReferenceWeights)
{
    dnn::LayerSpec layer = weightLayer();
    const uint64_t synth_seed = 0x5eed;
    WeightBrickPlanes planes = propagatedWeightPlanes(layer, synth_seed);

    expectPlanesEqual(
        planes,
        naiveWeightPlanes(layer,
                          requantizedReferenceCodes(layer, synth_seed)),
        layer.inputChannels);
    // The requantized stream is not the synthetic one.
    WeightBrickPlanes synth = syntheticWeightPlanes(layer);
    EXPECT_NE(planes.sumPop, synth.sumPop);
}

TEST(OperandPlanes, WeightPlanesMatchNaiveReductionAcrossChannelCounts)
{
    // Channel counts below, at, between and at multiples of the brick
    // width: the flat per-position runs must land every channel in
    // its (set, lane) cell and leave the padding lanes of each
    // partial brick untouched.
    const uint64_t synth_seed = 0x1a4e;
    for (int channels : {5, 16, 21, 24, 32}) {
        SCOPED_TRACE("channels " + std::to_string(channels));
        dnn::LayerSpec layer = weightLayer();
        layer.inputChannels = channels;
        ASSERT_TRUE(layer.valid());
        expectPlanesEqual(syntheticWeightPlanes(layer),
                          naiveWeightPlanes(layer, syntheticCodes(layer)),
                          channels);
        expectPlanesEqual(
            propagatedWeightPlanes(layer, synth_seed),
            naiveWeightPlanes(layer,
                              requantizedReferenceCodes(layer, synth_seed)),
            channels);
    }
}

} // namespace
} // namespace sim
} // namespace pra
