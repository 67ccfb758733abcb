/**
 * @file
 * Tests for the DaDianNao baseline model.
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/reference.h"
#include "models/dadn/dadn.h"
#include "models/engines.h"
#include "sim/tiling.h"
#include "tests/models/datapath_oracle.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** @p net priced by the "dadn" registry engine on seed @p seed. */
sim::NetworkResult
priceDadn(const dnn::Network &net, uint64_t seed = 0x5eed)
{
    dnn::ActivationSynthesizer synth(net, seed);
    return builtinEngines().create("dadn")->runNetwork(
        net, sim::WorkloadSource(synth), sim::AccelConfig{},
        sim::SampleSpec{0}, util::InnerExecutor());
}

TEST(Dadn, LayerCyclesFormula)
{
    auto net = dnn::makeAlexNet();
    const auto &conv2 = net.layers[1];
    // cycles = passes * windows * bricksPerWindow.
    double expected = 1.0 * conv2.windows() *
                      static_cast<double>(conv2.bricksPerWindow());
    EXPECT_DOUBLE_EQ(DadnEngine::layerCycles(conv2, sim::AccelConfig{}),
                     expected);
}

TEST(Dadn, MultiPassLayers)
{
    auto net = dnn::makeAlexNet();
    const auto &conv3 = net.layers[2]; // 384 filters -> 2 passes.
    double one_pass = static_cast<double>(conv3.windows()) *
                      static_cast<double>(conv3.bricksPerWindow());
    EXPECT_DOUBLE_EQ(DadnEngine::layerCycles(conv3, sim::AccelConfig{}),
                     2.0 * one_pass);
}

TEST(Dadn, ValueIndependence)
{
    // DaDN's cycles depend only on geometry: a different workload
    // seed prices the same.
    auto net = dnn::makeTinyNetwork();
    auto r1 = priceDadn(net);
    auto r2 = priceDadn(net, 0xdead);
    ASSERT_EQ(r1.layers.size(), net.layers.size());
    EXPECT_DOUBLE_EQ(r1.totalCycles(), r2.totalCycles());
    EXPECT_GT(r1.totalCycles(), 0.0);
}

TEST(Dadn, NfuBrickDotMatchesPlainDot)
{
    std::vector<uint16_t> neurons = {1, 2, 3, 0, 5, 6, 7, 8,
                                     9, 10, 0, 12, 13, 14, 15, 16};
    std::vector<int16_t> synapses = {-1, 2, -3, 4, -5, 6, -7, 8,
                                     -9, 10, -11, 12, -13, 14, -15, 16};
    int64_t expected = 0;
    for (int i = 0; i < 16; i++)
        expected += static_cast<int64_t>(synapses[i]) * neurons[i];
    EXPECT_EQ(nfuBrickDot(neurons, synapses), expected);
}

TEST(Dadn, NfuHandlesExtremes)
{
    std::vector<uint16_t> neurons(16, 0xffff);
    std::vector<int16_t> synapses(16, -32768);
    int64_t expected = 16LL * -32768 * 0xffff;
    EXPECT_EQ(nfuBrickDot(neurons, synapses), expected);
}

TEST(Dadn, ComputeWindowMatchesReference)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const sim::AccelConfig accel;
    for (size_t li = 0; li < net.layers.size(); li++) {
        const auto &layer = net.layers[li];
        auto input = synth.synthesizeFixed16(static_cast<int>(li));
        auto filters = dnn::synthesizeFilters(layer);
        for (int wy = 0; wy < layer.outY(); wy += 5) {
            for (int wx = 0; wx < layer.outX(); wx += 5) {
                EXPECT_EQ(computeWindow(layer, accel, input, filters[0],
                                        wx, wy),
                          dnn::referenceWindowDot(layer, input,
                                                  filters[0], wx, wy))
                    << layer.name;
            }
        }
    }
}

TEST(Dadn, RunCoversAllLayers)
{
    auto net = dnn::makeVggM();
    auto result = priceDadn(net);
    ASSERT_EQ(result.layers.size(), net.layers.size());
    EXPECT_EQ(result.engineName, "DaDN");
    for (size_t i = 0; i < result.layers.size(); i++) {
        EXPECT_EQ(result.layers[i].layerName, net.layers[i].name);
        EXPECT_GT(result.layers[i].cycles, 0.0);
        // 16 terms per product, effectual or not.
        EXPECT_DOUBLE_EQ(result.layers[i].effectualTerms,
                         16.0 * net.layers[i].products());
    }
}

TEST(Dadn, SmallerMachineIsSlower)
{
    sim::AccelConfig small;
    small.tiles = 4;
    auto layer = dnn::makeAlexNet().layers[2];
    EXPECT_GT(DadnEngine::layerCycles(layer, small),
              DadnEngine::layerCycles(layer, sim::AccelConfig{}));
}

} // namespace
} // namespace models
} // namespace pra
