/**
 * @file
 * Cross-model integration tests: every functional datapath (golden
 * reference, DaDN NFU, Stripes serial units, Pragmatic PIPs) must
 * produce identical convolution outputs on the same workload, and
 * the cycle engines must respect their mutual ordering.
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/reference.h"
#include "models/pragmatic/pip.h"
#include "models/engines.h"
#include "sim/sweep.h"
#include "sim/tiling.h"
#include "tests/dnn/reference_oracle.h"
#include "tests/models/datapath_oracle.h"

namespace pra {
namespace models {
namespace {

/**
 * Compute one output window with Pragmatic PIPs: iterate the synapse
 * sets exactly as a PIP column does and accumulate the per-brick
 * partial sums.
 */
int64_t
pragmaticWindow(const dnn::LayerSpec &layer,
                const dnn::NeuronTensor &input,
                const dnn::FilterTensor &filter, int wx, int wy, int l)
{
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    PragmaticInnerProduct pip(l);
    int64_t acc = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        sim::SynapseSetCoord coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, {wx, wy}, coord);
        std::array<int16_t, dnn::kBrickSize> synapses{};
        int lanes = std::min(accel.neuronLanes,
                             layer.inputChannels - coord.brickI);
        for (int lane = 0; lane < lanes; lane++)
            synapses[lane] =
                filter.at(coord.fx, coord.fy, coord.brickI + lane);
        acc += pip.processBrick(synapses, neurons).partialSum;
    }
    return acc;
}

/** Compute one window with Stripes serial-parallel units. */
int64_t
stripesWindow(const dnn::LayerSpec &layer,
              const dnn::NeuronTensor &input,
              const dnn::FilterTensor &filter, int wx, int wy)
{
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    int64_t acc = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        sim::SynapseSetCoord coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, {wx, wy}, coord);
        int lanes = std::min(accel.neuronLanes,
                             layer.inputChannels - coord.brickI);
        for (int lane = 0; lane < lanes; lane++) {
            int16_t w =
                filter.at(coord.fx, coord.fy, coord.brickI + lane);
            acc += serialMultiply(w, neurons[lane], 16);
        }
    }
    return acc;
}

class FunctionalEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(FunctionalEquivalence, AllDatapathsAgreeOnTinyNetwork)
{
    int l = GetParam();
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const sim::AccelConfig accel;
    for (size_t li = 0; li < net.layers.size(); li++) {
        const auto &layer = net.layers[li];
        auto input = synth.synthesizeFixed16(static_cast<int>(li));
        auto filters = dnn::synthesizeFilters(layer);
        auto golden = dnn::referenceConvolution(layer, input, filters);
        for (int f = 0; f < layer.numFilters;
             f += layer.numFilters / 3) {
            for (int wy = 0; wy < layer.outY(); wy += 4) {
                for (int wx = 0; wx < layer.outX(); wx += 4) {
                    int64_t want = golden.at(wx, wy, f);
                    EXPECT_EQ(pragmaticWindow(layer, input, filters[f],
                                              wx, wy, l),
                              want)
                        << layer.name << " PIP L=" << l;
                    if (l == 2) { // Value-independent paths run once.
                        EXPECT_EQ(computeWindow(layer, accel, input,
                                                filters[f], wx, wy),
                                  want);
                        EXPECT_EQ(stripesWindow(layer, input,
                                                filters[f], wx, wy),
                                  want);
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FirstStage, FunctionalEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(EndToEnd, TrimmedStreamStillComputesTrimmedConvolution)
{
    // Software trimming changes the values (that is its point); the
    // PIPs must compute the exact convolution of the trimmed stream.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[1];
    auto trimmed = synth.synthesizeFixed16Trimmed(1);
    auto filters = dnn::synthesizeFilters(layer);
    auto golden = dnn::referenceConvolution(layer, trimmed, filters);
    EXPECT_EQ(pragmaticWindow(layer, trimmed, filters[2], 3, 3, 2),
              golden.at(3, 3, 2));
}

TEST(EndToEnd, QuantizedCodesFlowThroughPips)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    auto codes = synth.synthesizeQuant8(0);
    auto filters = dnn::synthesizeFilters(layer);
    auto golden = dnn::referenceConvolution(layer, codes, filters);
    for (int l : {0, 2, 4})
        EXPECT_EQ(pragmaticWindow(layer, codes, filters[1], 2, 2, l),
                  golden.at(2, 2, 1));
}

TEST(EndToEnd, CycleCountOrderingAcrossEngines)
{
    // DaDN >= Stripes >= PRA-pallet >= PRA-perCol >= ideal, on the
    // same synthetic workload.
    sim::SweepOptions options;
    options.sample = sim::SampleSpec{0}; // Tiny network: exhaustive.
    auto results = sim::runSweep(
        {dnn::makeTinyNetwork()},
        {{"dadn", {}},
         {"stripes", {}},
         {"pragmatic", {{"nmstalls", "0"}}},
         {"pragmatic-col", {{"nmstalls", "0"}}},
         {"pragmatic-col", {{"nmstalls", "0"}, {"ssr", "0"}}}},
        builtinEngines(), options);
    auto cycles = [&](const char *engine) {
        return sim::findResult(results, "Tiny", engine).totalCycles();
    };
    double base = cycles("DaDN");
    double str = cycles("Stripes");
    double pra = cycles("PRA-2b");
    double col = cycles("PRA-2b-1R");
    double ide = cycles("PRA-2b-idealR");

    EXPECT_GT(base, str);
    EXPECT_GT(str, pra);
    EXPECT_GE(pra * 1.02, col);
    EXPECT_GE(col * 1.001, ide);
}

} // namespace
} // namespace models
} // namespace pra
