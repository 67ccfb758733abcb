/**
 * @file
 * Tests for the Stripes baseline model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/dadn/dadn.h"
#include "models/engines.h"
#include "models/stripes/stripes.h"
#include "sim/tiling.h"
#include "tests/models/datapath_oracle.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** @p net priced by the Stripes registry engine @p spec. */
sim::NetworkResult
priceStripes(const dnn::Network &net, const std::string &spec)
{
    dnn::ActivationSynthesizer synth(net);
    return builtinEngines()
        .create(sim::parseEngineSpec(spec))
        ->runNetwork(net, sim::WorkloadSource(synth), sim::AccelConfig{},
                     sim::SampleSpec{0}, util::InnerExecutor());
}

TEST(Stripes, SerialMultiplyMatchesProductWithinWindow)
{
    util::Xoshiro256 rng(0x57a1);
    for (int trial = 0; trial < 5000; trial++) {
        int precision = 1 + static_cast<int>(rng.nextBounded(16));
        auto synapse =
            static_cast<int16_t>(rng.nextInRange(-32768, 32767));
        auto neuron = static_cast<uint16_t>(
            rng.nextBounded(1u << precision));
        EXPECT_EQ(serialMultiply(synapse, neuron, precision),
                  static_cast<int64_t>(synapse) * neuron);
    }
}

TEST(Stripes, SerialMultiplyWithAnchoredWindow)
{
    // A value whose essential bits live in [lsb, lsb+p-1] multiplies
    // exactly when the window is anchored there.
    int lsb = 3;
    int precision = 6;
    uint16_t neuron = static_cast<uint16_t>(0b101101 << lsb);
    EXPECT_EQ(serialMultiply(100, neuron, precision, lsb),
              100LL * neuron);
}

TEST(Stripes, SerialMultiplyTruncatesOutsideWindow)
{
    // Bits above the window are not processed: Stripes depends on the
    // profiled precision being sufficient.
    uint16_t neuron = 0b1000'0001; // bit 7 outside a 4-bit window.
    EXPECT_EQ(serialMultiply(10, neuron, 4, 0), 10);
}

TEST(Stripes, LayerCyclesFormula)
{
    auto layer = dnn::makeAlexNet().layers[1]; // p == 8.
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    double expected = static_cast<double>(tiling.passes()) *
                      static_cast<double>(tiling.numPallets()) *
                      static_cast<double>(tiling.numSynapseSets()) * 8.0;
    EXPECT_DOUBLE_EQ(StripesEngine::layerCycles(layer, accel, 8), expected);
}

TEST(Stripes, IdealSpeedupSixteenOverP)
{
    // For a layer whose window count is a multiple of 16, speedup
    // over DaDN is exactly 16/p (Section I).
    dnn::LayerSpec layer;
    layer.name = "even";
    layer.inputX = 19;
    layer.inputY = 19;
    layer.inputChannels = 32;
    layer.filterX = 4;
    layer.filterY = 4;
    layer.numFilters = 256;
    layer.stride = 1;
    layer.pad = 0;
    layer.profiledPrecision = 8;
    ASSERT_EQ(layer.windows() % 16, 0); // 16x16 windows.
    const sim::AccelConfig accel;
    EXPECT_DOUBLE_EQ(DadnEngine::layerCycles(layer, accel) /
                         StripesEngine::layerCycles(layer, accel, 8),
                     16.0 / 8.0);
}

TEST(Stripes, PartialPalletsLoseSomeThroughput)
{
    // With windows not divisible by 16 the ceil() costs Stripes a
    // little, exactly as in hardware.
    auto layer = dnn::makeAlexNet().layers[2]; // 13x13 windows.
    const sim::AccelConfig accel;
    double speedup = DadnEngine::layerCycles(layer, accel) /
                     StripesEngine::layerCycles(layer, accel, 8);
    EXPECT_LT(speedup, 2.0);
    EXPECT_GT(speedup, 1.8);
}

TEST(Stripes, RunUsesProfiledPrecisions)
{
    auto net = dnn::makeAlexNet();
    auto result = priceStripes(net, "stripes");
    ASSERT_EQ(result.layers.size(), 5u);
    // conv3 (p == 5) must be relatively faster than conv1 (p == 9).
    const sim::AccelConfig accel;
    EXPECT_DOUBLE_EQ(result.layers[2].cycles,
                     StripesEngine::layerCycles(net.layers[2], accel, 5));
    EXPECT_DOUBLE_EQ(result.layers[0].cycles,
                     StripesEngine::layerCycles(net.layers[0], accel, 9));
}

TEST(Stripes, Quant8PrecisionsAreInByteRange)
{
    // repr=quant8 serializes each layer at the bits its largest code
    // needs: always 1..8, and the full byte for the image layer.
    auto net = dnn::makeAlexNet();
    auto result = priceStripes(net, "stripes:repr=quant8");
    ASSERT_EQ(result.layers.size(), net.layers.size());
    const sim::AccelConfig accel;
    std::vector<int> precisions;
    for (size_t i = 0; i < net.layers.size(); i++) {
        int matched = 0;
        for (int p = 1; p <= 8 && matched == 0; p++) {
            if (result.layers[i].cycles ==
                StripesEngine::layerResult(net.layers[i], accel, p).cycles)
                matched = p;
        }
        EXPECT_NE(matched, 0) << net.layers[i].name;
        precisions.push_back(matched);
    }
    EXPECT_EQ(precisions[0], 8);
}

TEST(Stripes, PrecisionBoundsChecked)
{
    auto layer = dnn::makeTinyNetwork().layers[0];
    const sim::AccelConfig accel;
    EXPECT_DEATH(StripesEngine::layerCycles(layer, accel, 0), "precision");
    EXPECT_DEATH(StripesEngine::layerCycles(layer, accel, 17), "precision");
}

/** Stripes never beats 16/p nor loses to DaDN across precisions. */
class StripesPrecisions : public ::testing::TestWithParam<int>
{
};

TEST_P(StripesPrecisions, SpeedupBounded)
{
    int p = GetParam();
    const sim::AccelConfig accel;
    for (const auto &layer : dnn::makeVggM().layers) {
        double speedup = DadnEngine::layerCycles(layer, accel) /
                         StripesEngine::layerCycles(layer, accel, p);
        EXPECT_LE(speedup, 16.0 / p + 1e-9);
        EXPECT_GE(speedup, 16.0 / p * 0.5); // Pallet rounding bound.
    }
}

INSTANTIATE_TEST_SUITE_P(Precisions, StripesPrecisions,
                         ::testing::Values(1, 4, 8, 12, 16));

} // namespace
} // namespace models
} // namespace pra
