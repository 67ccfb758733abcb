/**
 * @file
 * Validation twins for the Dynamic-Stripes engine.
 *
 * The layer-wide, leading-bit-off configuration must price every
 * layer of the paper grid bit-identically to the Stripes baseline —
 * that identity is what anchors the runtime detector to the profiled
 * precisions. The runtime configurations are cross-checked against a
 * brute-force per-term reference that re-derives every group mask,
 * precision and synchronization time straight from the tiling
 * definitions on a random partial-brick tensor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/dynamic_stripes/dynamic_stripes.h"
#include "models/engines.h"
#include "models/stripes/stripes.h"
#include "sim/engine_registry.h"
#include "sim/tiling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

/** Partial everything: 24 channels (1.5 bricks), 20 windows (1.25
 * pallets), 20 filters — every edge case of the tiling in one layer. */
dnn::LayerSpec
partialLayer()
{
    dnn::LayerSpec spec;
    spec.name = "ds-ref";
    spec.inputX = 9;
    spec.inputY = 7;
    spec.inputChannels = 24;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 20;
    spec.stride = 2;
    spec.pad = 1;
    spec.profiledPrecision = 8;
    return spec;
}

dnn::NeuronTensor
randomInput(const dnn::LayerSpec &layer, uint64_t seed)
{
    dnn::NeuronTensor t(layer.inputX, layer.inputY,
                        layer.inputChannels);
    util::Xoshiro256 rng(seed);
    for (auto &v : t.flat())
        v = static_cast<uint16_t>(rng.nextBounded(65536));
    return t;
}

/** Independent duplicate of the model's Diffy front end. */
dnn::NeuronTensor
diffyReference(const dnn::NeuronTensor &in)
{
    dnn::NeuronTensor out(in.sizeX(), in.sizeY(), in.sizeI());
    for (int y = 0; y < in.sizeY(); y++)
        for (int x = 0; x < in.sizeX(); x++)
            for (int i = 0; i < in.sizeI(); i++)
                out.at(x, y, i) = static_cast<uint16_t>(std::abs(
                    static_cast<int>(in.at(x, y, i)) -
                    (x > 0 ? static_cast<int>(in.at(x - 1, y, i))
                           : 0)));
    return out;
}

/** Bit-by-bit precision of a mask, independent of fixedpoint. */
int
referencePrecision(uint16_t mask, bool leading_bit)
{
    int msb = -1, lsb = -1;
    for (int b = 0; b < 16; b++)
        if (mask & (1u << b)) {
            if (lsb < 0)
                lsb = b;
            msb = b;
        }
    if (msb < 0)
        return 0;
    return leading_bit ? msb + 1 : msb - lsb + 1;
}

struct ReferenceTotals
{
    int64_t cycles = 0;
    int64_t terms = 0;
};

/**
 * Brute-force re-derivation of the DS pallet timing: full per-group
 * finish-time history driven directly by the definition "group g may
 * start set s once the pallet's slowest group finished set s - R".
 */
ReferenceTotals
referenceSimulate(const dnn::LayerSpec &layer,
                  const dnn::NeuronTensor &input,
                  const sim::AccelConfig &accel,
                  const DynamicStripesConfig &config)
{
    sim::LayerTiling tiling(layer, accel);
    const int64_t num_sets = tiling.numSynapseSets();
    const int gc = config.groupColumns;
    const int R = config.columnRegisters;
    ReferenceTotals totals;
    for (int64_t pallet = 0; pallet < tiling.numPallets(); pallet++) {
        const int active = tiling.windowsInPallet(pallet);
        const int groups = (active + gc - 1) / gc;
        // finish[g][s]: when group g finishes set s.
        std::vector<std::vector<int64_t>> finish(
            static_cast<size_t>(groups),
            std::vector<int64_t>(static_cast<size_t>(num_sets), 0));
        for (int64_t s = 0; s < num_sets; s++) {
            sim::SynapseSetCoord sc = tiling.setCoord(s);
            int real_lanes = std::min(accel.neuronLanes,
                                      layer.inputChannels - sc.brickI);
            std::vector<int> prec(static_cast<size_t>(groups));
            for (int g = 0; g < groups; g++) {
                int first = g * gc;
                int last = std::min(first + gc, active);
                uint16_t mask = 0;
                for (int c = first; c < last; c++) {
                    sim::WindowCoord w = tiling.windowCoord(
                        tiling.windowIndex(pallet, c));
                    for (uint16_t v :
                         tiling.gatherBrickView(input, w, sc))
                        mask |= v;
                }
                int p = referencePrecision(mask, config.leadingBit);
                prec[static_cast<size_t>(g)] = p;
                totals.terms += static_cast<int64_t>(p) * real_lanes *
                                (last - first);
            }
            if (R == 0) {
                int step = 1;
                for (int p : prec)
                    step = std::max(step, p);
                totals.cycles += step;
            } else {
                int64_t gate = 0;
                if (s >= R)
                    for (int g = 0; g < groups; g++)
                        gate = std::max(
                            gate, finish[static_cast<size_t>(g)]
                                        [static_cast<size_t>(s - R)]);
                for (int g = 0; g < groups; g++) {
                    size_t gi = static_cast<size_t>(g);
                    int64_t prev =
                        s > 0 ? finish[gi][static_cast<size_t>(s - 1)]
                              : 0;
                    finish[gi][static_cast<size_t>(s)] =
                        std::max(prev, gate) +
                        std::max(1, prec[gi]);
                }
            }
        }
        if (R > 0) {
            int64_t done = 0;
            for (int g = 0; g < groups; g++)
                done = std::max(
                    done, finish[static_cast<size_t>(g)]
                                [static_cast<size_t>(num_sets - 1)]);
            totals.cycles += done;
        }
    }
    return totals;
}

TEST(DynamicStripes, MatchesBruteForceReferenceAcrossKnobGrid)
{
    dnn::LayerSpec layer = partialLayer();
    dnn::NeuronTensor input = randomInput(layer, 0xd511a);
    sim::LayerWorkload workload(input);
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    // The workload path, serially and split across a 3-thread pool.
    util::ThreadPool pool(3);
    const util::InnerExecutor execs[] = {util::InnerExecutor(),
                                         util::InnerExecutor(&pool, 3)};
    for (int gc : {1, 4, 16})
        for (int regs : {0, 1, 2})
            for (bool lb : {false, true})
                for (bool diffy : {false, true}) {
                    DynamicStripesConfig config;
                    config.groupColumns = gc;
                    config.columnRegisters = regs;
                    config.leadingBit = lb;
                    config.diffy = diffy;
                    ReferenceTotals want = referenceSimulate(
                        layer, diffy ? diffyReference(input) : input,
                        accel, config);
                    const DynamicStripesEngine engine(
                        {{"granularity", std::to_string(gc)},
                         {"column-regs", std::to_string(regs)},
                         {"leading-bit", lb ? "1" : "0"},
                         {"diffy", diffy ? "1" : "0"}});
                    for (const util::InnerExecutor &exec : execs) {
                        sim::LayerResult got = engine.simulateLayer(
                            layer, workload, accel, sim::SampleSpec{0},
                            exec);
                        SCOPED_TRACE("g=" + std::to_string(gc) +
                                     " r=" + std::to_string(regs) +
                                     " lb=" + std::to_string(lb) +
                                     " diffy=" + std::to_string(diffy) +
                                     " tasks=" +
                                     std::to_string(exec.maxTasks()));
                        EXPECT_EQ(got.cycles,
                                  static_cast<double>(tiling.passes()) *
                                      static_cast<double>(want.cycles));
                        EXPECT_EQ(got.effectualTerms,
                                  static_cast<double>(want.terms) *
                                      layer.numFilters);
                        EXPECT_EQ(got.nmStallCycles, 0.0);
                    }
                }
}

TEST(DynamicStripes, LayerWideIsBitIdenticalToStripesAcrossPaperGrid)
{
    const sim::EngineRegistry &registry = builtinEngines();
    auto stripes = registry.create("stripes", {});
    auto ds = registry.create("dynamic_stripes",
                              {{"granularity", "layer"}});
    EXPECT_EQ(ds->inputStream(), sim::InputStream::None);
    sim::AccelConfig accel;
    sim::SampleSpec sample{4};
    for (const dnn::Network &net : dnn::makeAllNetworks()) {
        dnn::ActivationSynthesizer synth(net, 0x5eed);
        sim::NetworkResult a =
            stripes->runNetwork(net, sim::WorkloadSource(synth), accel,
                                sample, util::InnerExecutor());
        sim::NetworkResult b =
            ds->runNetwork(net, sim::WorkloadSource(synth), accel,
                           sample, util::InnerExecutor());
        ASSERT_EQ(a.layers.size(), b.layers.size()) << net.name;
        for (size_t l = 0; l < a.layers.size(); l++) {
            SCOPED_TRACE(net.name + "/" + a.layers[l].layerName);
            EXPECT_EQ(a.layers[l].cycles, b.layers[l].cycles);
            EXPECT_EQ(a.layers[l].effectualTerms,
                      b.layers[l].effectualTerms);
            EXPECT_EQ(a.layers[l].sbReadSteps, b.layers[l].sbReadSteps);
            EXPECT_EQ(a.layers[l].nmStallCycles,
                      b.layers[l].nmStallCycles);
        }
    }
}

TEST(DynamicStripes, LayerWideLeadingBitWidensToSynthesisWindowTop)
{
    // A leading-bit-only layer-wide detector latches the highest bit
    // any value can carry: the top of the synthesis window.
    dnn::Network net = dnn::makeTinyNetwork();
    sim::AccelConfig accel;
    auto ds = builtinEngines().create(
        "dynamic_stripes",
        {{"granularity", "layer"}, {"leading-bit", "1"}});
    for (const dnn::LayerSpec &layer : net.layers) {
        int precision =
            std::min(16, dnn::synthesisAnchor(layer) +
                             layer.profiledPrecision);
        sim::LayerResult want =
            StripesEngine::layerResult(layer, accel, precision);
        sim::LayerResult got = ds->simulateLayer(
            layer, sim::LayerWorkload(dnn::NeuronTensor()), accel,
            sim::SampleSpec{0}, util::InnerExecutor());
        EXPECT_EQ(got.cycles, want.cycles) << layer.name;
        EXPECT_EQ(got.effectualTerms, want.effectualTerms)
            << layer.name;
    }
}

TEST(DynamicStripesDeathTest, RejectsDegenerateKnobs)
{
    const sim::EngineRegistry &registry = builtinEngines();
    EXPECT_DEATH(registry.create("dynamic_stripes",
                                 {{"granularity", "0"}}),
                 "granularity");
    EXPECT_DEATH(registry.create("dynamic_stripes",
                                 {{"column-regs", "-1"}}),
                 "column-regs");
    EXPECT_DEATH(registry.create("dynamic_stripes",
                                 {{"granularity", "layer"},
                                  {"diffy", "1"}}),
                 "diffy");
    EXPECT_DEATH(registry.create("dynamic_stripes",
                                 {{"granularity", "layer"},
                                  {"column-regs", "2"}}),
                 "column-regs");
    // Divisibility is a property of the machine: rejected when a
    // layer is priced, not at construction.
    auto engine = registry.create("dynamic_stripes",
                                  {{"granularity", "5"}});
    dnn::LayerSpec layer = partialLayer();
    dnn::NeuronTensor input = randomInput(layer, 1);
    sim::AccelConfig accel;
    EXPECT_DEATH(engine->simulateLayer(
                     layer, sim::LayerWorkload(input), accel,
                     sim::SampleSpec{0}, util::InnerExecutor()),
                 "divisor of windowsPerPallet");
}

} // namespace
} // namespace models
} // namespace pra
