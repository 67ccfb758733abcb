/**
 * @file
 * Tests for per-column synchronization with SSRs (paper Section V-E).
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

/** Price @p input on @p engine, serially, through its workload. */
sim::LayerResult
price(const PragmaticEngine &engine, const dnn::LayerSpec &layer,
      const dnn::NeuronTensor &input, const sim::AccelConfig &accel,
      const sim::SampleSpec &sample)
{
    return engine.simulateLayer(layer, sim::LayerWorkload(input), accel,
                                sample, util::InnerExecutor());
}

/** Price @p input on the "pragmatic" engine, NM stalls off. */
sim::LayerResult
palletSync(const dnn::LayerSpec &layer, const dnn::NeuronTensor &input,
           const sim::AccelConfig &accel, const sim::SampleSpec &sample)
{
    return price(PragmaticEngine(SyncScheme::Pallet, {{"nmstalls", "0"}}),
                 layer, input, accel, sample);
}

/**
 * Price @p input on the "pragmatic-col" engine with @p ssrs synapse
 * set registers (0 = ideal) and the NM stall model on iff @p nm.
 */
sim::LayerResult
columnSync(const dnn::LayerSpec &layer, const dnn::NeuronTensor &input,
           const sim::AccelConfig &accel, int ssrs,
           const sim::SampleSpec &sample, bool nm = false)
{
    return price(PragmaticEngine(SyncScheme::PerColumn,
                                 {{"ssr", std::to_string(ssrs)},
                                  {"nmstalls", nm ? "1" : "0"}}),
                 layer, input, accel, sample);
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
    auto pallet = palletSync(layer, input, accel, sim::SampleSpec{0});
    auto column = columnSync(layer, input, accel, 1,
                             sim::SampleSpec{0});
    EXPECT_NEAR(column.cycles, pallet.cycles, pallet.cycles * 0.02);
}

TEST(ColumnSync, NeverSlowerThanPalletSync)
{
    auto layer = evenLayer();
    sim::AccelConfig accel;
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        auto input = randomInput(layer, seed);
        auto pallet = palletSync(layer, input, accel,
                                 sim::SampleSpec{0});
        auto column = columnSync(layer, input, accel, 1,
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
        auto result = columnSync(layer, input, accel, ssrs,
                                 sim::SampleSpec{0});
        EXPECT_LE(result.cycles, prev * 1.0001) << ssrs;
        prev = result.cycles;
    }
    // Ideal (infinite SSRs) is the floor.
    auto ideal = columnSync(layer, input, accel, 0,
                            sim::SampleSpec{0});
    EXPECT_LE(ideal.cycles, prev * 1.0001);
}

TEST(ColumnSync, SixteenSsrsNearIdeal)
{
    // Section VI-C: performance saturates quickly with SSR count.
    auto layer = evenLayer();
    auto input = randomInput(layer, 11);
    sim::AccelConfig accel;
    auto r16 = columnSync(layer, input, accel, 16, sim::SampleSpec{0});
    auto ideal = columnSync(layer, input, accel, 0,
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
    auto result = columnSync(layer, input, accel, 1,
                             sim::SampleSpec{0});
    const double dadn = DadnEngine::layerCycles(layer, accel);
    // Columns all take 16 cycles per set: identical to DaDN plus the
    // one-cycle SB pipeline fill.
    EXPECT_NEAR(result.cycles, dadn, dadn * 0.01);
}

TEST(ColumnSync, IdealBoundedByBusiestColumn)
{
    auto layer = evenLayer();
    auto input = randomInput(layer, 13);
    sim::AccelConfig accel;
    auto ideal = columnSync(layer, input, accel, 0,
                            sim::SampleSpec{0});
    // The busiest single column is a hard lower bound; with B sets
    // per pallet the total can't beat pallets * sets (1 cycle min).
    sim::LayerTiling tiling(layer, accel);
    EXPECT_GE(ideal.cycles,
              static_cast<double>(tiling.numPallets() *
                                  tiling.numSynapseSets()));
}

TEST(ColumnSync, NmModelOnlyAddsCycles)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto input = synth.synthesizeFixed16Trimmed(0);
    const auto &layer = net.layers[0];
    sim::AccelConfig accel;
    auto with = columnSync(layer, input, accel, 1, sim::SampleSpec{32},
                           true);
    auto without = columnSync(layer, input, accel, 1, sim::SampleSpec{32});
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
    auto base = columnSync(layer, input, accel, 1, sim::SampleSpec{0});
    auto more = columnSync(layer, input, accel, ssrs,
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
