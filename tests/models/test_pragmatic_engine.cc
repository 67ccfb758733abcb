/**
 * @file
 * Tests for the Pragmatic registry engines ("pragmatic" and
 * "pragmatic-col") priced end to end on synthetic workloads.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "models/pragmatic/column_sync.h"
#include "models/pragmatic/pragmatic_engine.h"
#include "models/pragmatic/tile.h"
#include "sim/workload_cache.h"
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

TEST(PragmaticEngine, WorkloadPathBitIdenticalToTensorKernels)
{
    // The engine prices off the workload's brick and cycle planes
    // (split across a pool for pallet sync); the plane-free tensor
    // kernels are the oracle it must match exactly.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    sim::AccelConfig accel;
    sim::SampleSpec sample{16};
    util::ThreadPool pool(3);
    util::InnerExecutor exec(&pool, 3);
    std::vector<std::string> specs;
    for (int bits : {1, 2, 3}) {
        for (int nmstalls : {0, 1}) {
            std::string knobs = ":bits=" + std::to_string(bits) +
                                ":nmstalls=" + std::to_string(nmstalls);
            specs.push_back("pragmatic" + knobs);
            specs.push_back("pragmatic-col" + knobs + ":ssr=0");
            specs.push_back("pragmatic-col" + knobs + ":ssr=1");
        }
    }
    for (const std::string &spec : specs) {
        auto created = builtinEngines().create(sim::parseEngineSpec(spec));
        const auto &engine = dynamic_cast<const PragmaticEngine &>(*created);
        const PragmaticConfig &config = engine.config();
        for (size_t i = 0; i < net.layers.size(); i++) {
            const dnn::LayerSpec &layer = net.layers[i];
            if (!layer.priced())
                continue;
            SCOPED_TRACE(spec + " on " + layer.name);
            dnn::NeuronTensor input = sim::synthesizeStream(
                synth, static_cast<int>(i), engine.inputStream());
            sim::LayerResult got = engine.simulateLayer(
                layer, sim::LayerWorkload(input), accel, sample, exec);
            sim::LayerResult want =
                config.sync == SyncScheme::Pallet
                    ? simulateLayerPalletSync(layer, input, accel, config,
                                              sample)
                    : simulateLayerColumnSync(layer, input, accel, config,
                                              sample);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.effectualTerms, want.effectualTerms);
            EXPECT_EQ(got.nmStallCycles, want.nmStallCycles);
            EXPECT_EQ(got.sbReadSteps, want.sbReadSteps);
        }
    }
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
