/**
 * @file
 * Validation of the Laconic engine against a brute-force per-term
 * reference: effectual terms recomputed as a direct quadruple loop
 * over (window, filter, synapse) popcount products, and cycle counts
 * re-derived per (pallet, set) from the raw weight codes, independent
 * of the packed weight-side planes the model consumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "dnn/weight_synth.h"
#include "models/laconic/laconic.h"
#include "sim/operand_planes.h"
#include "sim/tiling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {
namespace {

dnn::LayerSpec
partialLayer()
{
    dnn::LayerSpec spec;
    spec.name = "laconic-ref";
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

/** The layer's synthetic weight codes, one tensor row per filter. */
std::vector<std::vector<uint16_t>>
materializeCodes(const dnn::LayerSpec &layer)
{
    std::vector<std::vector<uint16_t>> codes(
        static_cast<size_t>(layer.numFilters));
    for (int f = 0; f < layer.numFilters; f++) {
        codes[static_cast<size_t>(f)].resize(
            static_cast<size_t>(layer.synapsesPerFilter()));
        dnn::synthesizeWeightCodes(layer, f,
                                   codes[static_cast<size_t>(f)]);
    }
    return codes;
}

/** Activation at (window, fy, fx, channel); 0 in padding. */
uint16_t
activationAt(const dnn::LayerSpec &layer,
             const dnn::NeuronTensor &input, sim::WindowCoord w,
             int fy, int fx, int c)
{
    int x = w.x * layer.stride - layer.pad + fx;
    int y = w.y * layer.stride - layer.pad + fy;
    if (x < 0 || x >= layer.inputX || y < 0 || y >= layer.inputY)
        return 0;
    return input.at(x, y, c);
}

/** Direct per-term count: sum of actPop x wgtPop over every product. */
int64_t
referenceTerms(const dnn::LayerSpec &layer,
               const dnn::NeuronTensor &input,
               const sim::AccelConfig &accel,
               const std::vector<std::vector<uint16_t>> &codes)
{
    sim::LayerTiling tiling(layer, accel);
    int64_t terms = 0;
    for (int64_t wi = 0; wi < layer.windows(); wi++) {
        sim::WindowCoord w = tiling.windowCoord(wi);
        for (int f = 0; f < layer.numFilters; f++)
            for (int fy = 0; fy < layer.filterY; fy++)
                for (int fx = 0; fx < layer.filterX; fx++)
                    for (int c = 0; c < layer.inputChannels; c++) {
                        int a = std::popcount(activationAt(
                            layer, input, w, fy, fx, c));
                        size_t s = static_cast<size_t>(
                            (fy * layer.filterX + fx) *
                                layer.inputChannels +
                            c);
                        terms +=
                            a * std::popcount(
                                    codes[static_cast<size_t>(f)][s]);
                    }
    }
    return terms;
}

/** Direct cycle count: slowest (act x wgt) pair per (pallet, set). */
int64_t
referenceCycles(const dnn::LayerSpec &layer,
                const dnn::NeuronTensor &input,
                const sim::AccelConfig &accel,
                const std::vector<std::vector<uint16_t>> &codes)
{
    sim::LayerTiling tiling(layer, accel);
    int64_t cycles = 0;
    for (int64_t pallet = 0; pallet < tiling.numPallets(); pallet++) {
        int active = tiling.windowsInPallet(pallet);
        for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
            sim::SynapseSetCoord sc = tiling.setCoord(s);
            int64_t step = 1;
            for (int col = 0; col < active; col++) {
                sim::WindowCoord w = tiling.windowCoord(
                    tiling.windowIndex(pallet, col));
                int lanes = std::min(accel.neuronLanes,
                                     layer.inputChannels - sc.brickI);
                for (int l = 0; l < lanes; l++) {
                    int c = sc.brickI + l;
                    int a = std::popcount(activationAt(
                        layer, input, w, sc.fy, sc.fx, c));
                    size_t si = static_cast<size_t>(
                        (sc.fy * layer.filterX + sc.fx) *
                            layer.inputChannels +
                        c);
                    int wp_max = 0;
                    for (int f = 0; f < layer.numFilters; f++)
                        wp_max = std::max(
                            wp_max,
                            std::popcount(
                                codes[static_cast<size_t>(f)][si]));
                    step = std::max(step,
                                    static_cast<int64_t>(a) * wp_max);
                }
            }
            cycles += step;
        }
    }
    return static_cast<int64_t>(tiling.passes()) * cycles;
}

/**
 * The workload path, serially and split across a 3-thread pool,
 * against the brute-force reference.
 */
void
expectMatchesReference(const dnn::LayerSpec &layer,
                       const dnn::NeuronTensor &input,
                       const sim::AccelConfig &accel)
{
    auto codes = materializeCodes(layer);
    const double terms =
        static_cast<double>(referenceTerms(layer, input, accel, codes));
    const double cycles = static_cast<double>(
        referenceCycles(layer, input, accel, codes));
    util::ThreadPool pool(3);
    sim::LayerWorkload workload(input);
    const LaconicEngine engine({});
    for (const util::InnerExecutor &exec :
         {util::InnerExecutor(), util::InnerExecutor(&pool, 3)}) {
        sim::LayerResult got = engine.simulateLayer(
            layer, workload, accel, sim::SampleSpec{0}, exec);
        EXPECT_EQ(got.effectualTerms, terms);
        EXPECT_EQ(got.cycles, cycles);
        EXPECT_EQ(got.nmStallCycles, 0.0);
    }
}

TEST(Laconic, MatchesBruteForcePerTermReference)
{
    // Stride 2, pad 1 and a partial second channel brick (24
    // channels); 20 windows, so 3 and 32 leave a partial pallet.
    dnn::LayerSpec layer = partialLayer();
    dnn::NeuronTensor input = randomInput(layer, 0x1ac01);
    for (int width : {1, 3, 16, 32}) {
        SCOPED_TRACE(width);
        sim::AccelConfig accel;
        accel.windowsPerPallet = width;
        expectMatchesReference(layer, input, accel);
    }
}

TEST(Laconic, ColumnSumsPastSixteenBits)
{
    // 4608 all-ones columns in one pallet: each lane's column sum is
    // 16 x 4608 = 73728, past what a 16-bit accumulator holds.
    dnn::LayerSpec layer;
    layer.name = "laconic-wide";
    layer.inputX = 72;
    layer.inputY = 64;
    layer.inputChannels = 16;
    layer.filterX = 1;
    layer.filterY = 1;
    layer.numFilters = 4;
    layer.stride = 1;
    layer.pad = 0;
    layer.profiledPrecision = 8;
    ASSERT_TRUE(layer.valid());
    dnn::NeuronTensor input(layer.inputX, layer.inputY,
                            layer.inputChannels);
    std::fill(input.flat().begin(), input.flat().end(), uint16_t{0xffff});
    sim::AccelConfig accel;
    accel.windowsPerPallet = 8192;
    ASSERT_EQ(sim::LayerTiling(layer, accel).numPallets(), 1);
    expectMatchesReference(layer, input, accel);
}

TEST(Laconic, MultiPassPricesWorstCasePassButExactTerms)
{
    // 300 filters = 2 passes: cycles take the all-filter worst case
    // per pass (the documented upper bound); terms stay exact because
    // the weight-plane popcount sum already covers every filter.
    dnn::LayerSpec layer;
    layer.name = "laconic-passes";
    layer.inputX = 4;
    layer.inputY = 4;
    layer.inputChannels = 16;
    layer.filterX = 1;
    layer.filterY = 1;
    layer.numFilters = 300;
    layer.stride = 1;
    layer.pad = 0;
    layer.profiledPrecision = 8;
    ASSERT_TRUE(layer.valid());
    dnn::NeuronTensor input = randomInput(layer, 0x1ac02);
    sim::AccelConfig accel;
    ASSERT_EQ(sim::LayerTiling(layer, accel).passes(), 2);
    expectMatchesReference(layer, input, accel);
}

TEST(Laconic, PropagatedWeightPlanesAreDeterministicAndDistinct)
{
    dnn::LayerSpec layer = partialLayer();
    dnn::NeuronTensor input = randomInput(layer, 0x1ac04);
    sim::AccelConfig accel;
    auto propagated_builder = [](const dnn::LayerSpec &l) {
        return std::make_shared<const sim::WeightBrickPlanes>(
            sim::propagatedWeightPlanes(l, 0x5eed));
    };
    sim::LayerWorkload wl_a(input, propagated_builder);
    sim::LayerWorkload wl_b(input, propagated_builder);
    sim::LayerWorkload wl_synth(input);
    util::InnerExecutor serial;
    const LaconicEngine engine({});
    sim::LayerResult a = engine.simulateLayer(
        layer, wl_a, accel, sim::SampleSpec{0}, serial);
    sim::LayerResult b = engine.simulateLayer(
        layer, wl_b, accel, sim::SampleSpec{0}, serial);
    sim::LayerResult synth = engine.simulateLayer(
        layer, wl_synth, accel, sim::SampleSpec{0}, serial);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.effectualTerms, b.effectualTerms);
    // Requantized reference weights are a different code stream than
    // the synthetic one — the workload key separates the modes.
    EXPECT_NE(a.effectualTerms, synth.effectualTerms);
}

} // namespace
} // namespace models
} // namespace pra
