/**
 * @file
 * Tests for the deterministic weight-code synthesizer: code ranges,
 * stream determinism, the seed-independence contract (one trained
 * network, regardless of --seed), and the propagated requantization
 * against a direct materialization of the reference weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/propagate.h"
#include "dnn/weight_synth.h"
#include "util/random.h"

namespace pra {
namespace dnn {
namespace {

LayerSpec
testLayer(int weight_precision)
{
    LayerSpec spec;
    spec.name = "wsynth";
    spec.inputX = 5;
    spec.inputY = 5;
    spec.inputChannels = 32;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 12;
    spec.stride = 1;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    spec.profiledWeightPrecision = weight_precision;
    return spec;
}

TEST(WeightSynth, CodesStayInProfiledPrecisionRange)
{
    for (int wp : {2, 8, 9, 16}) {
        LayerSpec layer = testLayer(wp);
        std::vector<uint16_t> codes(
            static_cast<size_t>(layer.synapsesPerFilter()));
        uint32_t max_code = (1u << wp) - 1;
        for (int f = 0; f < layer.numFilters; f++) {
            synthesizeWeightCodes(layer, f, codes);
            for (uint16_t code : codes)
                ASSERT_LE(code, max_code) << "wp=" << wp;
        }
    }
}

TEST(WeightSynth, StreamIsDeterministicAndPerFilter)
{
    LayerSpec layer = testLayer(8);
    std::vector<uint16_t> a(
        static_cast<size_t>(layer.synapsesPerFilter()));
    std::vector<uint16_t> b(a.size());
    synthesizeWeightCodes(layer, 3, a);
    synthesizeWeightCodes(layer, 3, b);
    EXPECT_EQ(a, b);
    synthesizeWeightCodes(layer, 4, b);
    EXPECT_NE(a, b);
    // A different layer name is a different trained tensor.
    LayerSpec other = testLayer(8);
    other.name = "wsynth2";
    synthesizeWeightCodes(other, 3, b);
    EXPECT_NE(a, b);
}

TEST(WeightSynth, SparsityAndDensityLandNearTargets)
{
    LayerSpec layer = testLayer(8);
    int64_t zeros = 0, total = 0, set_bits = 0;
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    for (int f = 0; f < layer.numFilters; f++) {
        synthesizeWeightCodes(layer, f, codes);
        for (uint16_t code : codes) {
            total++;
            zeros += code == 0;
            set_bits += std::popcount(code);
        }
    }
    double zero_frac =
        static_cast<double>(zeros) / static_cast<double>(total);
    // kWeightZeroFraction exactly-zero codes plus the distribution's
    // own near-zero mass keeps this loose on the low side.
    EXPECT_GT(zero_frac, 0.02);
    EXPECT_LT(zero_frac, 0.15);
    double mean_pop =
        static_cast<double>(set_bits) / static_cast<double>(total);
    EXPECT_GT(mean_pop, 1.0);
    EXPECT_LT(mean_pop, 3.5);
}

TEST(WeightSynth, PropagatedCodesMatchRequantizedReference)
{
    LayerSpec layer = testLayer(9);
    const uint64_t synth_seed = 0xfeed;
    PropagatedWeightCodes source(layer, synth_seed);

    std::vector<FilterTensor> filters =
        synthesizeFilters(layer, synth_seed ^ kPropagationFilterSalt);
    int max_mag = 0;
    for (const auto &f : filters)
        for (int16_t w : f.flat())
            max_mag = std::max(max_mag, std::abs(w));
    EXPECT_EQ(source.maxMagnitude(), max_mag);

    const int max_code = (1 << layer.profiledWeightPrecision) - 1;
    const double scale = static_cast<double>(max_code) / max_mag;
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    for (int f = 0; f < layer.numFilters; f++) {
        source.filterCodes(f, codes);
        size_t s = 0;
        bool all_match = true;
        for (int fy = 0; fy < layer.filterY; fy++)
            for (int fx = 0; fx < layer.filterX; fx++)
                for (int c = 0; c < layer.inputChannels; c++) {
                    uint16_t want = static_cast<uint16_t>(std::llround(
                        std::abs(filters[static_cast<size_t>(f)].at(
                            fx, fy, c)) *
                        scale));
                    all_match &= codes[s++] == want;
                }
        EXPECT_TRUE(all_match) << "filter " << f;
    }
}

TEST(WeightSynth, PropagatedMaxScansTinyLayersToTheEnd)
{
    // A 1x1x2 layer of two filters: its four weights never draw the
    // +/-kReferenceWeightRange bound, so the max scan's early exit
    // cannot fire. The max sits in the last weight drawn, so a scan
    // that stops before the end of the layer misses it.
    LayerSpec layer = LayerSpec::fullyConnected("wsynth_tiny", 2, 2, 8, 9);
    const uint64_t synth_seed = 0xfeed3;
    std::vector<FilterTensor> filters =
        synthesizeFilters(layer, synth_seed ^ kPropagationFilterSalt);
    const int max_mag = std::abs(filters[1].flat()[1]);
    ASSERT_LT(max_mag, kReferenceWeightRange);
    for (const auto &f : filters)
        for (int16_t w : f.flat())
            ASSERT_LE(std::abs(w), max_mag);
    ASSERT_GT(max_mag, std::abs(filters[1].flat()[0]));
    ASSERT_GT(max_mag, std::abs(filters[0].flat()[0]));
    ASSERT_GT(max_mag, std::abs(filters[0].flat()[1]));

    PropagatedWeightCodes source(layer, synth_seed);
    EXPECT_EQ(source.maxMagnitude(), max_mag);
    const double scale =
        static_cast<double>((1 << layer.profiledWeightPrecision) - 1) /
        max_mag;
    std::vector<uint16_t> codes(2);
    for (int f = 0; f < 2; f++) {
        source.filterCodes(f, codes);
        auto weights = filters[static_cast<size_t>(f)].flat();
        for (size_t c = 0; c < 2; c++)
            EXPECT_EQ(codes[c], std::llround(std::abs(weights[c]) * scale))
                << "filter " << f << " weight " << c;
    }
}

TEST(WeightSynthDeathTest, PropagatedFiltersMustStreamInOrder)
{
    LayerSpec layer = testLayer(8);
    PropagatedWeightCodes source(layer, 0xfeed);
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    source.filterCodes(0, codes);
    EXPECT_DEATH(source.filterCodes(2, codes), "order");
}

} // namespace
} // namespace dnn
} // namespace pra
