/**
 * @file
 * Cross-checks of the fully-connected lowering: every registered
 * engine must price an FC layer bit-for-bit identically to its
 * hand-built 1x1xI convolutional twin, because the lowering maps FC
 * onto exactly the geometry the conv schedule/term paths consume.
 *
 * The twin layers sit at index 1 behind a shared conv stem so the
 * first-layer rules (image-input synthesis override, CVN's
 * cannot-skip-layer-1) apply identically on both sides; the
 * activation streams of same-named layers at the same index of
 * same-named networks are bit-identical by construction.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/engine_registry.h"
#include "sim/sweep.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** Price @p net exhaustively (both layers are tiny), stock machine. */
sim::NetworkResult
price(const sim::Engine &engine, const dnn::Network &net,
      const dnn::ActivationSynthesizer &synth)
{
    return engine.runNetwork(net, sim::WorkloadSource(synth),
                             sim::AccelConfig{}, sim::SampleSpec{0},
                             util::InnerExecutor());
}

/** The shared conv stem both networks start with. */
dnn::LayerSpec
stemLayer()
{
    dnn::LayerSpec spec;
    spec.name = "stem";
    spec.inputX = 12;
    spec.inputY = 12;
    spec.inputChannels = 16;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 24;
    spec.stride = 1;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    return spec;
}

/** A network named TwinNet whose second layer is @p second. */
dnn::Network
twinNetwork(dnn::LayerSpec second)
{
    dnn::Network net;
    net.name = "TwinNet";
    net.targets = {0.08, 0.18, 0.31, 0.44, 0.19};
    net.layers = {stemLayer(), std::move(second)};
    EXPECT_TRUE(net.valid());
    return net;
}

dnn::Network
fcNetwork()
{
    return twinNetwork(
        dnn::LayerSpec::fullyConnected("twin", 800, 64, 8));
}

dnn::Network
convTwinNetwork()
{
    dnn::LayerSpec twin;
    twin.name = "twin";
    twin.kind = dnn::LayerKind::Conv;
    twin.inputX = 1;
    twin.inputY = 1;
    twin.inputChannels = 800;
    twin.filterX = 1;
    twin.filterY = 1;
    twin.numFilters = 64;
    twin.stride = 1;
    twin.pad = 0;
    twin.profiledPrecision = 8;
    return twinNetwork(std::move(twin));
}

TEST(FcLowering, EveryEngineKindPricesFcAsItsConvTwin)
{
    const sim::EngineRegistry &registry = builtinEngines();
    dnn::Network fc_net = fcNetwork();
    dnn::Network conv_net = convTwinNetwork();
    dnn::ActivationSynthesizer fc_synth(fc_net, 0x5eed);
    dnn::ActivationSynthesizer conv_synth(conv_net, 0x5eed);

    ASSERT_EQ(registry.kinds().size(), 7u);
    for (const auto &kind : registry.kinds()) {
        std::unique_ptr<sim::Engine> engine =
            registry.create(kind, {});
        sim::NetworkResult fc_result = price(*engine, fc_net, fc_synth);
        sim::NetworkResult conv_result =
            price(*engine, conv_net, conv_synth);
        ASSERT_EQ(fc_result.layers.size(), 2u) << kind;
        ASSERT_EQ(conv_result.layers.size(), 2u) << kind;
        for (size_t l = 0; l < 2; l++) {
            const auto &a = fc_result.layers[l];
            const auto &b = conv_result.layers[l];
            EXPECT_EQ(a.cycles, b.cycles) << kind << " layer " << l;
            EXPECT_EQ(a.nmStallCycles, b.nmStallCycles)
                << kind << " layer " << l;
            EXPECT_EQ(a.effectualTerms, b.effectualTerms)
                << kind << " layer " << l;
            EXPECT_EQ(a.sbReadSteps, b.sbReadSteps)
                << kind << " layer " << l;
            EXPECT_EQ(a.sampleScale, b.sampleScale)
                << kind << " layer " << l;
        }
    }
}

TEST(FcLowering, PaperGridVariantsPriceFcAsConvTwin)
{
    // Beyond default knobs: the paper's headline design points
    // (PRA-0b..4b, the column-sync SSR variant) must agree too.
    const sim::EngineRegistry &registry = builtinEngines();
    dnn::Network fc_net = fcNetwork();
    dnn::Network conv_net = convTwinNetwork();
    dnn::ActivationSynthesizer fc_synth(fc_net, 0x5eed);
    dnn::ActivationSynthesizer conv_synth(conv_net, 0x5eed);

    for (const auto &sel : paperEngineGrid()) {
        std::unique_ptr<sim::Engine> engine = registry.create(sel);
        sim::NetworkResult fc_result = price(*engine, fc_net, fc_synth);
        sim::NetworkResult conv_result =
            price(*engine, conv_net, conv_synth);
        const auto &a = fc_result.layers[1];
        const auto &b = conv_result.layers[1];
        EXPECT_EQ(a.cycles, b.cycles) << engine->name();
        EXPECT_EQ(a.nmStallCycles, b.nmStallCycles) << engine->name();
        EXPECT_EQ(a.effectualTerms, b.effectualTerms)
            << engine->name();
        EXPECT_EQ(a.sbReadSteps, b.sbReadSteps) << engine->name();
    }
}

TEST(FcLowering, FcStreamIsTheLoweredInputColumn)
{
    dnn::Network fc_net = fcNetwork();
    dnn::ActivationSynthesizer synth(fc_net, 0x5eed);
    dnn::NeuronTensor stream = synth.synthesizeFixed16(1);
    EXPECT_EQ(stream.sizeX(), 1);
    EXPECT_EQ(stream.sizeY(), 1);
    EXPECT_EQ(stream.sizeI(), 800);
}

TEST(FcLowering, StreamsAreSelectionInvariant)
{
    // The same logical layer must synthesize the same stream no
    // matter which selection it survived into: streams are seeded by
    // the layer's ordinal in the unfiltered network, not by its
    // index in the filtered list (Tiny fc1 is list index 3 under All
    // — behind the structural pool — but index 0 under Fc; its
    // priced ordinal is 2 either way).
    auto all_net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    auto fc_net = dnn::makeTinyNetwork(dnn::LayerSelect::Fc);
    ASSERT_EQ(fc_net.layers[0].name, "fc1");
    ASSERT_EQ(all_net.layers[3].name, "fc1");
    EXPECT_EQ(fc_net.layers[0].ordinal, 2);
    EXPECT_EQ(all_net.layers[3].ordinal, 2);

    dnn::ActivationSynthesizer all_synth(all_net, 0x5eed);
    dnn::ActivationSynthesizer fc_synth(fc_net, 0x5eed);
    dnn::NeuronTensor a = all_synth.synthesizeFixed16(3);
    dnn::NeuronTensor b = fc_synth.synthesizeFixed16(0);
    ASSERT_EQ(a.size(), b.size());
    auto lhs = a.flat();
    auto rhs = b.flat();
    for (size_t i = 0; i < rhs.size(); i++)
        ASSERT_EQ(lhs[i], rhs[i]);

    // And therefore identical pricing: PRA-2b on fc1 costs the same
    // whether the conv layers were swept alongside it or not. (The
    // structural pool is skipped by runNetwork, so fc1 is priced row
    // 2 under both selections.)
    std::unique_ptr<sim::Engine> engine =
        builtinEngines().create("pragmatic", {});
    auto all_result = price(*engine, all_net, all_synth);
    auto fc_result = price(*engine, fc_net, fc_synth);
    EXPECT_EQ(all_result.layers[2].cycles, fc_result.layers[0].cycles);
    EXPECT_EQ(all_result.layers[2].effectualTerms,
              fc_result.layers[0].effectualTerms);
}

TEST(FcLowering, SweepGridMixesKindsDeterministically)
{
    // An FC-bearing network through the full parallel sweep path:
    // thread counts and cache modes must stay bit-identical (the
    // same guarantee the conv sweep makes).
    std::vector<dnn::Network> networks = {fcNetwork()};
    std::vector<sim::EngineSelection> grid;
    for (const auto &kind : builtinEngines().kinds())
        grid.push_back({kind, {}});

    sim::SweepOptions seq;
    seq.threads = 1;
    seq.sample.maxUnits = 2;
    sim::SweepOptions par = seq;
    par.threads = 4;
    par.cache = false;

    auto a = runSweep(networks, grid, builtinEngines(), seq);
    auto b = runSweep(networks, grid, builtinEngines(), par);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].layers.size(), b[i].layers.size());
        for (size_t l = 0; l < a[i].layers.size(); l++) {
            EXPECT_EQ(a[i].layers[l].cycles, b[i].layers[l].cycles);
            EXPECT_EQ(a[i].layers[l].effectualTerms,
                      b[i].layers[l].effectualTerms);
        }
    }
}

} // namespace
} // namespace models
} // namespace pra
