/**
 * @file
 * Tests for per-column synchronization with SSRs (paper Section V-E).
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/dadn/dadn.h"
#include "models/pragmatic/column_sync.h"
#include "models/pragmatic/tile.h"
#include "sim/tiling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** Price @p input under pallet sync, serially, through its workload. */
sim::LayerResult
palletSync(const dnn::LayerSpec &layer, const dnn::NeuronTensor &input,
           const sim::AccelConfig &accel, const PragmaticConfig &config,
           const sim::SampleSpec &sample)
{
    return simulateLayerPalletSync(layer, sim::LayerWorkload(input), accel,
                                   config, sample, util::InnerExecutor());
}

/** Price @p input under column sync through its workload. */
sim::LayerResult
columnSync(const dnn::LayerSpec &layer, const dnn::NeuronTensor &input,
           const sim::AccelConfig &accel, const PragmaticConfig &config,
           const sim::SampleSpec &sample)
{
    return simulateLayerColumnSync(layer, sim::LayerWorkload(input), accel,
                                   config, sample);
}

dnn::LayerSpec
evenLayer()
{
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
randomInput(const dnn::LayerSpec &layer, uint64_t seed,
            double zero_prob = 0.5, uint32_t bound = 4096)
{
    dnn::NeuronTensor t(layer.inputX, layer.inputY,
                        layer.inputChannels);
    util::Xoshiro256 rng(seed);
    for (auto &v : t.flat())
        v = rng.nextBool(zero_prob)
                ? 0
                : static_cast<uint16_t>(rng.nextBounded(bound));
    return t;
}

PragmaticConfig
config(int ssrs, bool nm = false)
{
    PragmaticConfig c;
    c.firstStageBits = 2;
    c.ssrCount = ssrs;
    c.modelNmStalls = nm;
    return c;
}

TEST(ColumnSync, UniformInputMatchesPalletSync)
{
    // When every brick costs the same, columns stay in lockstep and
    // per-column sync offers nothing.
    auto layer = evenLayer();
    dnn::NeuronTensor input(layer.inputX, layer.inputY,
                            layer.inputChannels);
    for (auto &v : input.flat())
        v = 0b101;
    sim::AccelConfig accel;
    PragmaticConfig tile;
    tile.modelNmStalls = false;
    auto pallet = palletSync(layer, input, accel, tile, sim::SampleSpec{0});
    auto column = columnSync(layer, input, accel, config(1),
                             sim::SampleSpec{0});
    EXPECT_NEAR(column.cycles, pallet.cycles, pallet.cycles * 0.02);
}

TEST(ColumnSync, NeverSlowerThanPalletSync)
{
    auto layer = evenLayer();
    sim::AccelConfig accel;
    PragmaticConfig tile;
    tile.modelNmStalls = false;
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        auto input = randomInput(layer, seed);
        auto pallet = palletSync(layer, input, accel, tile,
                                 sim::SampleSpec{0});
        auto column = columnSync(layer, input, accel, config(1),
                                 sim::SampleSpec{0});
        // A small slack term covers pipeline fill at the stream head.
        EXPECT_LE(column.cycles, pallet.cycles * 1.02) << seed;
    }
}

TEST(ColumnSync, MonotoneInSsrCount)
{
    auto layer = evenLayer();
    auto input = randomInput(layer, 7);
    sim::AccelConfig accel;
    double prev = 1e18;
    for (int ssrs : {1, 2, 4, 8, 16}) {
        auto result = columnSync(layer, input, accel, config(ssrs),
                                 sim::SampleSpec{0});
        EXPECT_LE(result.cycles, prev * 1.0001) << ssrs;
        prev = result.cycles;
    }
    // Ideal (infinite SSRs) is the floor.
    auto ideal = columnSync(layer, input, accel, config(0),
                            sim::SampleSpec{0});
    EXPECT_LE(ideal.cycles, prev * 1.0001);
}

TEST(ColumnSync, SixteenSsrsNearIdeal)
{
    // Section VI-C: performance saturates quickly with SSR count.
    auto layer = evenLayer();
    auto input = randomInput(layer, 11);
    sim::AccelConfig accel;
    auto r16 = columnSync(layer, input, accel, config(16), sim::SampleSpec{0});
    auto ideal = columnSync(layer, input, accel, config(0),
                            sim::SampleSpec{0});
    EXPECT_NEAR(r16.cycles / ideal.cycles, 1.0, 0.05);
}

TEST(ColumnSync, WorstCaseStillMatchesDaDn)
{
    auto layer = evenLayer();
    dnn::NeuronTensor input(layer.inputX, layer.inputY,
                            layer.inputChannels);
    for (auto &v : input.flat())
        v = 0xffff;
    sim::AccelConfig accel;
    auto result = columnSync(layer, input, accel, config(1),
                             sim::SampleSpec{0});
    DadnModel dadn(accel);
    // Columns all take 16 cycles per set: identical to DaDN plus the
    // one-cycle SB pipeline fill.
    EXPECT_NEAR(result.cycles, dadn.layerCycles(layer),
                dadn.layerCycles(layer) * 0.01);
}

TEST(ColumnSync, IdealBoundedByBusiestColumn)
{
    auto layer = evenLayer();
    auto input = randomInput(layer, 13);
    sim::AccelConfig accel;
    auto ideal = columnSync(layer, input, accel, config(0),
                            sim::SampleSpec{0});
    // The busiest single column is a hard lower bound; with B sets
    // per pallet the total can't beat pallets * sets (1 cycle min).
    sim::LayerTiling tiling(layer, accel);
    EXPECT_GE(ideal.cycles,
              static_cast<double>(tiling.numPallets() *
                                  tiling.numSynapseSets()));
}

TEST(ColumnSync, EngineNames)
{
    auto layer = evenLayer();
    auto input = randomInput(layer, 17);
    sim::AccelConfig accel;
    auto r1 = columnSync(layer, input, accel, config(1), sim::SampleSpec{16});
    EXPECT_EQ(r1.engineName, "PRA-perCol");
    auto ideal = columnSync(layer, input, accel, config(0),
                            sim::SampleSpec{16});
    EXPECT_EQ(ideal.engineName, "PRA-perCol-ideal");
}

TEST(ColumnSync, NmModelOnlyAddsCycles)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto input = synth.synthesizeFixed16Trimmed(0);
    const auto &layer = net.layers[0];
    sim::AccelConfig accel;
    auto with = columnSync(layer, input, accel, config(1, true),
                           sim::SampleSpec{32});
    auto without = columnSync(layer, input, accel, config(1, false),
                              sim::SampleSpec{32});
    EXPECT_GE(with.cycles, without.cycles);
}

/** SSR sweep shows diminishing returns, mirroring Figure 10. */
class SsrSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SsrSweep, GainOverOneSsrIsBounded)
{
    int ssrs = GetParam();
    auto layer = evenLayer();
    auto input = randomInput(layer, 23, 0.6, 1u << 12);
    sim::AccelConfig accel;
    auto base = columnSync(layer, input, accel, config(1), sim::SampleSpec{0});
    auto more = columnSync(layer, input, accel, config(ssrs),
                           sim::SampleSpec{0});
    double gain = base.cycles / more.cycles;
    EXPECT_GE(gain, 0.999);
    EXPECT_LE(gain, 1.6); // Section VI-C: one SSR is nearly enough.
}

INSTANTIATE_TEST_SUITE_P(Counts, SsrSweep,
                         ::testing::Values(2, 4, 8, 16));

} // namespace
} // namespace models
} // namespace pra
