/**
 * @file
 * Tests for the Pragmatic registry engines ("pragmatic" and
 * "pragmatic-col") priced end to end on synthetic workloads, and for
 * the brick costs both price from.
 */

#include <gtest/gtest.h>

#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "models/pragmatic/brick_cost.h"
#include "models/pragmatic/pragmatic_engine.h"
#include "models/pragmatic/schedule.h"
#include "sim/operand_planes.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** Price @p net with the engine @p spec, sampling 16 pallets a layer. */
sim::NetworkResult
price(const dnn::Network &net, const std::string &spec,
      uint64_t seed = 0x5eed)
{
    dnn::ActivationSynthesizer synth(net, seed);
    return builtinEngines()
        .create(sim::parseEngineSpec(spec))
        ->runNetwork(net, sim::WorkloadSource(synth), sim::AccelConfig{},
                     sim::SampleSpec{16}, util::InnerExecutor());
}

TEST(PragmaticEngine, NameLabelsFollowKnobs)
{
    auto name = [](const std::string &spec) {
        return builtinEngines().create(sim::parseEngineSpec(spec))->name();
    };
    EXPECT_EQ(name("pragmatic:bits=2"), "PRA-2b");
    EXPECT_EQ(name("pragmatic-col"), "PRA-2b-1R");
    EXPECT_EQ(name("pragmatic-col:ssr=0"), "PRA-2b-idealR");
    EXPECT_EQ(name("pragmatic-col:ssr=0:repr=quant8"),
              "PRA-2b-idealR-q8");
    EXPECT_EQ(name("pragmatic:trim=false"), "PRA-2b-notrim");
}

TEST(PragmaticEngine, RunsAllLayersDeterministically)
{
    auto net = dnn::makeTinyNetwork();
    auto r1 = price(net, "pragmatic");
    auto r2 = price(net, "pragmatic");
    ASSERT_EQ(r1.layers.size(), net.layers.size());
    EXPECT_DOUBLE_EQ(r1.totalCycles(), r2.totalCycles());
    EXPECT_EQ(r1.engineName, "PRA-2b");
}

TEST(PragmaticEngine, FasterThanDaDnOnRealisticStreams)
{
    auto net = dnn::makeTinyNetwork();
    EXPECT_GT(price(net, "pragmatic").speedupOver(price(net, "dadn")),
              1.0);
}

TEST(PragmaticEngine, TrimOnlyHelps)
{
    auto net = dnn::makeAlexNet();
    EXPECT_LE(price(net, "pragmatic").totalCycles(),
              price(net, "pragmatic:trim=false").totalCycles());
}

TEST(PragmaticEngine, ColumnSyncBeatsPalletSync)
{
    auto net = dnn::makeTinyNetwork();
    EXPECT_LE(price(net, "pragmatic-col").totalCycles(),
              price(net, "pragmatic").totalCycles() * 1.02);
}

TEST(PragmaticEngine, QuantizedRepresentationRuns)
{
    auto net = dnn::makeTinyNetwork();
    auto result = price(net, "pragmatic:repr=quant8");
    EXPECT_GT(result.totalCycles(), 0.0);
    // 8-bit codes: at most 8 essential bits per neuron, so PRA can't
    // be slower than half of DaDN's 16-bit-parallel pace.
    EXPECT_GT(result.speedupOver(price(net, "dadn")), 1.0);
}

TEST(PragmaticEngine, SeedChangesWorkloadNotShape)
{
    auto net = dnn::makeTinyNetwork();
    auto ra = price(net, "pragmatic");
    auto rb = price(net, "pragmatic", 0xdead);
    // Different streams, but statistically similar cycle counts.
    EXPECT_NE(ra.totalCycles(), rb.totalCycles());
    EXPECT_NEAR(ra.totalCycles() / rb.totalCycles(), 1.0, 0.15);
}

/**
 * Every (window, set) visit of @p layer: BrickCostModel::brick must
 * equal the schedule length and term count rederived from the
 * tensor's brick view, at every first-stage width, with the cycle
 * planes on and off.
 */
void
expectBrickCostsMatchBrickViews(const dnn::LayerSpec &layer,
                                const dnn::NeuronTensor &input)
{
    sim::LayerWorkload workload(input);
    sim::PalletDriver driver(layer, sim::AccelConfig{}, sim::SampleSpec{0},
                             workload);
    const sim::LayerTiling &tiling = driver.tiling();
    for (bool planes : {true, false}) {
        sim::setCyclePlanesEnabled(planes);
        for (int bits = 0; bits <= kMaxFirstStageBits; bits++) {
            SCOPED_TRACE(layer.name + " L=" + std::to_string(bits) +
                         " cycle planes " + (planes ? "on" : "off"));
            const BrickCostModel costs(driver, bits);
            int64_t visits = 0;
            int64_t mismatches = 0;
            for (int64_t wi = 0; wi < layer.windows(); wi++) {
                const sim::WindowCoord w = tiling.windowCoord(wi);
                for (const sim::SynapseSetCoord &s : driver.setCoords()) {
                    auto view = tiling.gatherBrickView(input, w, s);
                    BrickCostModel::Cost got = costs.brick(w, s);
                    visits++;
                    if (got.cycles != brickScheduleCycles(view, bits) ||
                        got.terms != sim::summarizeBrick(view).pop)
                        mismatches++;
                }
            }
            EXPECT_GT(visits, 0);
            EXPECT_EQ(mismatches, 0) << "of " << visits << " visits";
        }
    }
    sim::setCyclePlanesEnabled(true);
}

TEST(PragmaticEngine, BrickCostsMatchBrickViewsOnEveryVisit)
{
    // Tiny's priced layers: 8 channels (one partial brick), 24, and
    // the lowered 1 x 1 x 800 fc input.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    for (size_t i = 0; i < net.layers.size(); i++) {
        if (!net.layers[i].priced())
            continue;
        expectBrickCostsMatchBrickViews(
            net.layers[i],
            sim::synthesizeStream(synth, static_cast<int>(i),
                                  sim::InputStream::Fixed16Trimmed));
    }
    // Stride 2 and pad 1 (padding visits) over 24 channels (a partial
    // second brick), with full-width random values so the L=0 and L=4
    // bounds often disagree and the fallback schedule runs.
    dnn::LayerSpec layer;
    layer.name = "strided";
    layer.inputX = 9;
    layer.inputY = 7;
    layer.inputChannels = 24;
    layer.filterX = 3;
    layer.filterY = 3;
    layer.numFilters = 20;
    layer.stride = 2;
    layer.pad = 1;
    layer.profiledPrecision = 8;
    ASSERT_TRUE(layer.valid());
    dnn::NeuronTensor input(layer.inputX, layer.inputY,
                            layer.inputChannels);
    util::Xoshiro256 rng(0xb41c);
    for (auto &v : input.flat())
        v = static_cast<uint16_t>(rng.nextBounded(65536));
    expectBrickCostsMatchBrickViews(layer, input);
}

TEST(PragmaticEngineDeathTest, InvalidAccelConfigPanics)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    sim::AccelConfig bad;
    bad.tiles = 0;
    for (const char *kind : {"pragmatic", "pragmatic-col"}) {
        auto engine = builtinEngines().create(kind);
        EXPECT_DEATH(engine->runNetwork(net, sim::WorkloadSource(synth),
                                        bad, sim::SampleSpec{16},
                                        util::InnerExecutor()),
                     "invalid config")
            << kind;
    }
}

} // namespace
} // namespace models
} // namespace pra
