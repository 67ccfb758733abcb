/**
 * @file
 * Tests for the pallet-synchronization engine (paper Section V-A4).
 */

#include <gtest/gtest.h>

#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/dadn/dadn.h"
#include "models/pragmatic/pragmatic_engine.h"
#include "sim/tiling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/**
 * Price @p input on the "pragmatic" engine built from @p knobs,
 * serially, through its workload.
 */
sim::LayerResult
palletSync(const dnn::LayerSpec &layer, const dnn::NeuronTensor &input,
           const sim::AccelConfig &accel, const sim::EngineKnobs &knobs,
           const sim::SampleSpec &sample)
{
    return PragmaticEngine(SyncScheme::Pallet, knobs)
        .simulateLayer(layer, sim::LayerWorkload(input), accel, sample,
                       util::InnerExecutor());
}

/** No NM stall model, so cycles are the schedule's alone. */
const sim::EngineKnobs kNoStalls = {{"nmstalls", "0"}};

dnn::LayerSpec
evenLayer()
{
    // 16x16 windows: exactly 16 pallets, no partial edges.
    dnn::LayerSpec spec;
    spec.name = "even";
    spec.inputX = 18;
    spec.inputY = 18;
    spec.inputChannels = 32;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 256;
    spec.stride = 1;
    spec.pad = 0;
    spec.profiledPrecision = 8;
    return spec;
}

dnn::NeuronTensor
constantInput(const dnn::LayerSpec &layer, uint16_t value)
{
    dnn::NeuronTensor t(layer.inputX, layer.inputY,
                        layer.inputChannels);
    for (auto &v : t.flat())
        v = value;
    return t;
}

TEST(PalletSync, WorstCaseEqualsDaDn)
{
    // All-ones neurons: every brick takes 16 cycles, exactly DaDN's
    // per-pallet cost — the paper's "always match DaDN" guarantee.
    auto layer = evenLayer();
    auto input = constantInput(layer, 0xffff);
    sim::AccelConfig accel;
    auto result = palletSync(layer, input, accel, kNoStalls,
                             sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(result.cycles, DadnEngine::layerCycles(layer, accel));
}

TEST(PalletSync, SingleBitNeuronsGiveSixteenX)
{
    auto layer = evenLayer();
    auto input = constantInput(layer, 0b100);
    sim::AccelConfig accel;
    auto result = palletSync(layer, input, accel, kNoStalls,
                             sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(DadnEngine::layerCycles(layer, accel) / result.cycles,
                     16.0);
}

TEST(PalletSync, AllZeroInputStillPaysOneCyclePerSet)
{
    auto layer = evenLayer();
    auto input = constantInput(layer, 0);
    sim::AccelConfig accel;
    auto result = palletSync(layer, input, accel, kNoStalls,
                             sim::SampleSpec{0});
    sim::LayerTiling tiling(layer, accel);
    EXPECT_DOUBLE_EQ(result.cycles,
                     static_cast<double>(tiling.numPallets() *
                                         tiling.numSynapseSets()));
}

TEST(PalletSync, NeverSlowerThanDaDnOnRandomData)
{
    auto layer = evenLayer();
    util::Xoshiro256 rng(0xaaaa);
    auto input = constantInput(layer, 0);
    for (auto &v : input.flat())
        v = static_cast<uint16_t>(rng.nextBounded(65536));
    sim::AccelConfig accel;
    for (int l = 0; l <= 4; l++) {
        auto result = palletSync(
            layer, input, accel,
            {{"bits", std::to_string(l)}, {"nmstalls", "0"}},
            sim::SampleSpec{0});
        EXPECT_LE(result.cycles,
                  DadnEngine::layerCycles(layer, accel) + 1e-9)
            << l;
    }
}

TEST(PalletSync, MonotoneInFirstStageBits)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    auto input = synth.synthesizeFixed16(1);
    const auto &layer = net.layers[1];
    sim::AccelConfig accel;
    double prev = 1e18;
    for (int l = 0; l <= 4; l++) {
        auto result = palletSync(
            layer, input, accel,
            {{"bits", std::to_string(l)}, {"nmstalls", "0"}},
            sim::SampleSpec{0});
        EXPECT_LE(result.cycles, prev) << l;
        prev = result.cycles;
    }
}

TEST(PalletSync, SamplingIsUnbiasedOnUniformData)
{
    auto layer = evenLayer();
    auto input = constantInput(layer, 0b1010);
    sim::AccelConfig accel;
    auto full =
        palletSync(layer, input, accel, kNoStalls, sim::SampleSpec{0});
    auto sampled =
        palletSync(layer, input, accel, kNoStalls, sim::SampleSpec{4});
    EXPECT_DOUBLE_EQ(full.cycles, sampled.cycles);
    EXPECT_GT(sampled.sampleScale, 1.0);
}

TEST(PalletSync, SamplingCloseOnRandomData)
{
    auto layer = evenLayer();
    util::Xoshiro256 rng(0xbbbb);
    auto input = constantInput(layer, 0);
    for (auto &v : input.flat())
        v = rng.nextBool(0.5)
                ? static_cast<uint16_t>(rng.nextBounded(256))
                : 0;
    sim::AccelConfig accel;
    auto full =
        palletSync(layer, input, accel, kNoStalls, sim::SampleSpec{0});
    auto sampled =
        palletSync(layer, input, accel, kNoStalls, sim::SampleSpec{8});
    EXPECT_NEAR(sampled.cycles / full.cycles, 1.0, 0.1);
}

TEST(PalletSync, NmStallsOnlyAddCycles)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto input = synth.synthesizeFixed16Trimmed(0);
    const auto &layer = net.layers[0]; // stride 4: visible stalls.
    sim::AccelConfig accel;
    auto stalled = palletSync(layer, input, accel, {}, sim::SampleSpec{32});
    auto clean =
        palletSync(layer, input, accel, kNoStalls, sim::SampleSpec{32});
    EXPECT_GE(stalled.cycles, clean.cycles);
    EXPECT_GE(stalled.nmStallCycles, 0.0);
    EXPECT_DOUBLE_EQ(clean.nmStallCycles, 0.0);
}

TEST(PalletSync, EffectualTermsScaleWithFilters)
{
    auto layer = evenLayer();
    auto input = constantInput(layer, 0b11);
    sim::AccelConfig accel;
    auto result = palletSync(layer, input, accel, kNoStalls,
                             sim::SampleSpec{0});
    // Every neuron use contributes 2 essential bits x 256 filters.
    double uses = static_cast<double>(layer.windows()) *
                  layer.filterX * layer.filterY * layer.inputChannels;
    EXPECT_DOUBLE_EQ(result.effectualTerms,
                     uses * 2.0 * layer.numFilters);
}

TEST(PalletSync, SbReadsMatchDaDnSchedule)
{
    auto layer = evenLayer();
    auto input = constantInput(layer, 1);
    sim::AccelConfig accel;
    auto result = palletSync(layer, input, accel, {}, sim::SampleSpec{0});
    sim::LayerTiling tiling(layer, accel);
    EXPECT_DOUBLE_EQ(result.sbReadSteps,
                     static_cast<double>(tiling.numPallets() *
                                         tiling.numSynapseSets()));
}

} // namespace
} // namespace models
} // namespace pra
