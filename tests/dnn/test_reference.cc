/**
 * @file
 * Tests for the golden reference convolution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/propagate.h"
#include "dnn/reference.h"
#include "tests/dnn/reference_oracle.h"
#include "util/random.h"

namespace pra {
namespace dnn {
namespace {

LayerSpec
smallLayer()
{
    LayerSpec spec;
    spec.name = "small";
    spec.inputX = 4;
    spec.inputY = 4;
    spec.inputChannels = 2;
    spec.filterX = 2;
    spec.filterY = 2;
    spec.numFilters = 2;
    spec.stride = 1;
    spec.pad = 0;
    spec.profiledPrecision = 8;
    return spec;
}

TEST(Reference, HandComputedOnesFilter)
{
    LayerSpec spec = smallLayer();
    NeuronTensor input(4, 4, 2);
    int v = 1;
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 4; x++)
            for (int i = 0; i < 2; i++)
                input.at(x, y, i) = static_cast<uint16_t>(v++);
    FilterTensor ones(2, 2, 2);
    for (auto &w : ones.flat())
        w = 1;
    std::vector<FilterTensor> filters = {ones, ones};
    auto out = referenceConvolution(spec, input, filters);
    // Window (0,0): neurons 1..4 (x0y0), 5..8? Layout: value order is
    // (y, x, i); window covers (0,0),(1,0),(0,1),(1,1) both channels:
    // 1+2 + 3+4 + 9+10 + 11+12 = 52.
    EXPECT_EQ(out.at(0, 0, 0), 52);
    EXPECT_EQ(out.at(0, 0, 1), 52); // Same filter content.
}

TEST(Reference, StrideSkipsWindows)
{
    LayerSpec spec = smallLayer();
    spec.stride = 2;
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 7;
    input.at(2, 0, 0) = 3;
    FilterTensor probe(2, 2, 2);
    probe.at(0, 0, 0) = 1;
    std::vector<FilterTensor> filters = {probe, probe};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.sizeX(), 2);
    EXPECT_EQ(out.at(0, 0, 0), 7);
    EXPECT_EQ(out.at(1, 0, 0), 3); // Window at x==2.
}

TEST(Reference, PaddingReadsZero)
{
    LayerSpec spec = smallLayer();
    spec.pad = 1;
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 5;
    FilterTensor probe(2, 2, 2);
    for (auto &w : probe.flat())
        w = 1;
    std::vector<FilterTensor> filters = {probe, probe};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.sizeX(), 5);
    // Top-left padded window sees only input (0,0).
    EXPECT_EQ(out.at(0, 0, 0), 5);
}

TEST(Reference, NegativeWeights)
{
    LayerSpec spec = smallLayer();
    NeuronTensor input(4, 4, 2);
    input.at(0, 0, 0) = 10;
    input.at(1, 0, 0) = 4;
    FilterTensor f(2, 2, 2);
    f.at(0, 0, 0) = -3;
    f.at(1, 0, 0) = 2;
    std::vector<FilterTensor> filters = {f, f};
    auto out = referenceConvolution(spec, input, filters);
    EXPECT_EQ(out.at(0, 0, 0), -30 + 8);
}

TEST(Reference, WindowDotMatchesFullConvolution)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer synth(net);
    const auto &spec = net.layers[0];
    auto input = synth.synthesizeFixed16(0);
    auto filters = synthesizeFilters(spec);
    auto out = referenceConvolution(spec, input, filters);
    for (int f = 0; f < spec.numFilters; f += 7) {
        for (int wy = 0; wy < spec.outY(); wy += 3) {
            for (int wx = 0; wx < spec.outX(); wx += 3) {
                EXPECT_EQ(out.at(wx, wy, f),
                          referenceWindowDot(spec, input, filters[f],
                                             wx, wy));
            }
        }
    }
}

/**
 * Every (window, filter) output of referenceConvolution() against the
 * scalar referenceWindowDot() oracle.
 */
void
expectMatchesWindowDot(const LayerSpec &spec, const NeuronTensor &input,
                       const std::vector<FilterTensor> &filters)
{
    auto out = referenceConvolution(spec, input, filters);
    ASSERT_EQ(out.sizeX(), spec.outX());
    ASSERT_EQ(out.sizeY(), spec.outY());
    ASSERT_EQ(out.sizeI(), spec.numFilters);
    for (int f = 0; f < spec.numFilters; f++)
        for (int wy = 0; wy < spec.outY(); wy++)
            for (int wx = 0; wx < spec.outX(); wx++)
                ASSERT_EQ(out.at(wx, wy, f),
                          referenceWindowDot(spec, input, filters[f],
                                             wx, wy))
                    << spec.name << " window (" << wx << ", " << wy
                    << ") filter " << f;
}

/** Activations uniform in [0, 65535], about a third of them zero. */
NeuronTensor
sparseInput(int x, int y, int c, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    NeuronTensor input(x, y, c);
    for (auto &v : input.flat())
        v = rng.nextBool(0.35)
                ? 0
                : static_cast<uint16_t>(rng.nextBounded(65536));
    return input;
}

/**
 * Call @p check(spec, input, filters) on every adversarial shape:
 * partial filter blocks (1, 15, 17, 33 filters), channel counts that
 * straddle nothing and everything, strides 1-4 with maximal padding so
 * edge windows see a single input pixel, each on a sparse and a dead
 * input, then the FC column (one window over a long input).
 */
template <typename Check>
void
forEachBlockedShape(Check &&check)
{
    int shape = 0;
    for (int channels : {1, 3, 17}) {
        for (int num_filters : {1, 15, 17, 33}) {
            LayerSpec spec;
            spec.name = "blocked" + std::to_string(shape);
            spec.inputX = 9;
            spec.inputY = 7;
            spec.inputChannels = channels;
            spec.filterX = 2 + shape % 3;
            spec.filterY = spec.filterX;
            spec.numFilters = num_filters;
            spec.stride = 1 + shape % 4;
            spec.pad = spec.filterX - 1;
            spec.profiledPrecision = 16;
            ASSERT_TRUE(spec.valid()) << spec.name;
            auto filters = synthesizeFilters(spec, 0xb10c + shape, 32767);
            check(spec, sparseInput(9, 7, channels, 0x5eed + shape),
                  filters);
            // A dead input convolves to all zeros.
            check(spec, NeuronTensor(9, 7, channels), filters);
            shape++;
        }
    }
    LayerSpec fc = LayerSpec::fullyConnected("blocked_fc", 1000, 33, 16);
    check(fc, sparseInput(1, 1, 1000, 0xfc),
          synthesizeFilters(fc, 0xfc, 32767));
}

TEST(Reference, BlockedConvolutionMatchesWindowDot)
{
    forEachBlockedShape(expectMatchesWindowDot);
}

/**
 * A layer whose block bound gives K = 1: |w| = 32768 against
 * a = 65535, so every product is its own int32 chunk and any two of
 * them would overflow int32. Filter 0 is all -32768, filter 1 all
 * 32767; the centre input pixel's channel 3 is the only zero.
 */
struct ExtremesCase
{
    LayerSpec spec;
    NeuronTensor input{5, 5, 17};
    std::vector<FilterTensor> filters;
};

ExtremesCase
extremesCase()
{
    ExtremesCase c;
    c.spec.name = "extremes";
    c.spec.inputX = 5;
    c.spec.inputY = 5;
    c.spec.inputChannels = 17;
    c.spec.filterX = 3;
    c.spec.filterY = 3;
    c.spec.numFilters = 17;
    c.spec.stride = 2;
    c.spec.pad = 2;
    c.spec.profiledPrecision = 16;
    for (auto &v : c.input.flat())
        v = 65535;
    c.input.at(2, 2, 3) = 0;
    c.filters.assign(17, FilterTensor(3, 3, 17));
    util::Xoshiro256 rng(0xe7);
    const int16_t extremes[] = {32767, -32767, -32768};
    for (int f = 0; f < 17; f++)
        for (auto &w : c.filters[f].flat())
            w = f == 0 ? int16_t{-32768}
                       : f == 1 ? int16_t{32767}
                                : extremes[rng.nextBounded(3)];
    return c;
}

TEST(Reference, BlockedConvolutionFlushesEveryTermAtExtremes)
{
    const ExtremesCase c = extremesCase();
    expectMatchesWindowDot(c.spec, c.input, c.filters);
    // The uniform filters make the expected sums easy to state: the
    // centre window covers 9 pixels x 17 channels, one of them zero.
    auto out = referenceConvolution(c.spec, c.input, c.filters);
    EXPECT_EQ(out.at(1, 1, 0), int64_t{-32768} * 65535 * (9 * 17 - 1));
    EXPECT_EQ(out.at(1, 1, 1), int64_t{32767} * 65535 * (9 * 17 - 1));
}

/**
 * Sampled windows and filters of every priced layer of @p net's
 * propagated chain: the kernel exactly as propagateChain() runs it
 * (filters streamed block by block) against referenceWindowDot() on
 * the chain's real, ReLU-sparse input streams.
 */
void
expectChainMatchesWindowDot(const Network &net)
{
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    const uint64_t seed = synth.seed() ^ kPropagationFilterSalt;
    for (size_t i = 0; i < net.layers.size(); i++) {
        const LayerSpec &layer = net.layers[i];
        if (!layer.priced())
            continue;
        const NeuronTensor &input = chain.inputs[i];
        FilterWeightStream stream(layer, seed);
        OutputTensor out = BlockedConvolution(layer, input).run(
            [&stream] { return stream.next(); });
        // Replay the same stream, keeping every 13th filter whole.
        FilterWeightStream replay(layer, seed);
        const int wy_step = std::max(1, layer.outY() / 5);
        const int wx_step = std::max(1, layer.outX() / 5);
        for (int f = 0; f < layer.numFilters; f++) {
            FilterTensor filter(layer.filterX, layer.filterY,
                                layer.inputChannels);
            for (auto &w : filter.flat())
                w = replay.next();
            if (f % 13 != 0)
                continue;
            for (int wy = 0; wy < layer.outY(); wy += wy_step)
                for (int wx = 0; wx < layer.outX(); wx += wx_step)
                    ASSERT_EQ(out.at(wx, wy, f),
                              referenceWindowDot(layer, input, filter,
                                                 wx, wy))
                        << net.name << "/" << layer.name << " window ("
                        << wx << ", " << wy << ") filter " << f;
        }
    }
}

TEST(Reference, BlockedConvolutionMatchesWindowDotOnAlexNetChain)
{
    expectChainMatchesWindowDot(makeAlexNet(LayerSelect::All));
}

TEST(Reference, BlockedConvolutionMatchesWindowDotOnGoogLeNetChain)
{
    expectChainMatchesWindowDot(makeGoogLeNet(LayerSelect::All));
}

TEST(Reference, BlockedConvolutionIsaNamesTheChosenVariant)
{
    const std::string isa = blockedConvolutionIsa();
    const bool avx2 = bestConvolutionIsa() == ConvolutionIsa::Avx2;
    EXPECT_EQ(isa, avx2 ? "avx2" : "baseline");
#if defined(__x86_64__) && defined(__GNUC__)
    EXPECT_EQ(isa, __builtin_cpu_supports("avx2") ? "avx2" : "baseline");
#else
    EXPECT_EQ(isa, "baseline");
#endif
}

/** Skip the calling test when this build or CPU has no AVX2 kernel. */
#define SKIP_WITHOUT_AVX2()                                               \
    do {                                                                  \
        if (bestConvolutionIsa() != ConvolutionIsa::Avx2)                 \
            GTEST_SKIP() << "no AVX2 kernel on this build or CPU: only "  \
                            "the baseline variant can run";               \
    } while (0)

/** Both kernel variants produce the same whole output. */
void
expectVariantsAgree(const LayerSpec &spec, const NeuronTensor &input,
                    const std::vector<FilterTensor> &filters)
{
    const OutputTensor baseline = referenceConvolution(
        spec, input, filters, ConvolutionIsa::Baseline);
    const OutputTensor avx2 =
        referenceConvolution(spec, input, filters, ConvolutionIsa::Avx2);
    ASSERT_EQ(baseline.sizeX(), avx2.sizeX()) << spec.name;
    ASSERT_EQ(baseline.sizeY(), avx2.sizeY()) << spec.name;
    ASSERT_EQ(baseline.sizeI(), avx2.sizeI()) << spec.name;
    EXPECT_TRUE(std::ranges::equal(baseline.flat(), avx2.flat()))
        << spec.name;
}

TEST(ReferenceVariant, Avx2MatchesBaselineOnEveryShape)
{
    SKIP_WITHOUT_AVX2();
    forEachBlockedShape(expectVariantsAgree);
}

TEST(ReferenceVariant, Avx2MatchesBaselineAtExtremes)
{
    SKIP_WITHOUT_AVX2();
    const ExtremesCase c = extremesCase();
    expectVariantsAgree(c.spec, c.input, c.filters);
}

/**
 * Every third priced layer of @p net's propagated chain, run by both
 * variants on the chain's real input and its FilterWeightStream.
 */
void
expectVariantsAgreeOnChain(const Network &net)
{
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    const uint64_t seed = synth.seed() ^ kPropagationFilterSalt;
    int priced = 0;
    for (size_t i = 0; i < net.layers.size(); i++) {
        const LayerSpec &layer = net.layers[i];
        if (!layer.priced() || priced++ % 3 != 0)
            continue;
        const BlockedConvolution kernel(layer, chain.inputs[i]);
        auto run = [&](ConvolutionIsa isa) {
            FilterWeightStream stream(layer, seed);
            return kernel.run([&stream] { return stream.next(); }, isa);
        };
        const OutputTensor baseline = run(ConvolutionIsa::Baseline);
        const OutputTensor avx2 = run(ConvolutionIsa::Avx2);
        EXPECT_TRUE(std::ranges::equal(baseline.flat(), avx2.flat()))
            << net.name << "/" << layer.name;
    }
    EXPECT_GT(priced, 0);
}

TEST(ReferenceVariant, Avx2MatchesBaselineOnAlexNetChain)
{
    SKIP_WITHOUT_AVX2();
    expectVariantsAgreeOnChain(makeAlexNet(LayerSelect::All));
}

TEST(ReferenceVariant, Avx2MatchesBaselineOnGoogLeNetChain)
{
    SKIP_WITHOUT_AVX2();
    expectVariantsAgreeOnChain(makeGoogLeNet(LayerSelect::All));
}

/** Every kernel variant this build and CPU can run. */
std::vector<ConvolutionIsa>
runnableIsas()
{
    std::vector<ConvolutionIsa> isas = {ConvolutionIsa::Baseline};
    if (bestConvolutionIsa() == ConvolutionIsa::Avx2)
        isas.push_back(ConvolutionIsa::Avx2);
    return isas;
}

/**
 * A single-window layer at every runnable ISA: each filter's output
 * against referenceWindowDot() over window (0, 0).
 */
void
expectSingleWindowMatchesWindowDot(const LayerSpec &spec,
                                   const NeuronTensor &input,
                                   const std::vector<FilterTensor> &filters)
{
    ASSERT_EQ(spec.outX(), 1) << spec.name;
    ASSERT_EQ(spec.outY(), 1) << spec.name;
    for (ConvolutionIsa isa : runnableIsas()) {
        const OutputTensor out =
            referenceConvolution(spec, input, filters, isa);
        ASSERT_EQ(out.size(), static_cast<size_t>(spec.numFilters));
        for (int f = 0; f < spec.numFilters; f++)
            ASSERT_EQ(out.at(0, 0, f),
                      referenceWindowDot(spec, input, filters[f], 0, 0))
                << spec.name << " filter " << f << " isa "
                << static_cast<int>(isa);
    }
}

TEST(ReferenceSingleWindow, FullyConnectedMatchesWindowDot)
{
    // 33 filters: two full blocks' worth and a remainder.
    const LayerSpec fc =
        LayerSpec::fullyConnected("single_fc", 777, 33, 16);
    const auto filters = synthesizeFilters(fc, 0x51, 32767);
    expectSingleWindowMatchesWindowDot(fc, sparseInput(1, 1, 777, 0x51),
                                       filters);
}

TEST(ReferenceSingleWindow, PaddedConvWindowReadsZeroAtPaddedTaps)
{
    // A 3x3 input, 3x3 filter, pad 1, stride 3: one window at
    // (-1, -1), so the filter's top row and left column hit padding
    // and the input's last row and column are never read.
    LayerSpec spec;
    spec.name = "single_padded";
    spec.inputX = 3;
    spec.inputY = 3;
    spec.inputChannels = 5;
    spec.filterX = 3;
    spec.filterY = 3;
    spec.numFilters = 19;
    spec.stride = 3;
    spec.pad = 1;
    spec.profiledPrecision = 16;
    ASSERT_TRUE(spec.valid());
    const auto filters = synthesizeFilters(spec, 0x9ad, 32767);
    NeuronTensor input = sparseInput(3, 3, 5, 0x9ad);
    expectSingleWindowMatchesWindowDot(spec, input, filters);
    // Only taps (1..2, 1..2) of each filter meet the input.
    FilterTensor probe(3, 3, 5);
    for (auto &w : probe.flat())
        w = 1;
    probe.at(0, 0, 0) = 1000;
    int64_t expected = 0;
    for (int y = 0; y < 2; y++)
        for (int x = 0; x < 2; x++)
            for (int c = 0; c < 5; c++)
                expected += input.at(x, y, c);
    std::vector<FilterTensor> probes(19, probe);
    for (ConvolutionIsa isa : runnableIsas())
        EXPECT_EQ(referenceConvolution(spec, input, probes, isa)
                      .at(0, 0, 18),
                  expected);
}

TEST(ReferenceSingleWindow, DeadInputConvolvesToZeros)
{
    const LayerSpec fc = LayerSpec::fullyConnected("single_dead", 100, 9);
    const auto filters = synthesizeFilters(fc, 0xdead, 32767);
    const NeuronTensor dead(1, 1, 100);
    expectSingleWindowMatchesWindowDot(fc, dead, filters);
    for (ConvolutionIsa isa : runnableIsas()) {
        const OutputTensor out =
            referenceConvolution(fc, dead, filters, isa);
        EXPECT_TRUE(std::ranges::all_of(out.flat(),
                                        [](int64_t v) { return v == 0; }));
    }
}

TEST(ReferenceSingleWindow, ExtremeOperandsAccumulateInInt64)
{
    // Every activation 0xFFFF against weights of magnitude 32767 (and
    // -32768): one product nearly fills int32, and a filter's 1000 of
    // them overflow it thousands of times over.
    const LayerSpec fc =
        LayerSpec::fullyConnected("single_extremes", 1000, 4, 16);
    NeuronTensor input(1, 1, 1000);
    for (auto &v : input.flat())
        v = 0xFFFF;
    std::vector<FilterTensor> filters(4, FilterTensor(1, 1, 1000));
    const int16_t fill[] = {32767, -32767, -32768};
    for (int f = 0; f < 3; f++)
        for (auto &w : filters[f].flat())
            w = fill[f];
    for (size_t s = 0; s < filters[3].size(); s++)
        filters[3].flat()[s] =
            s % 2 == 0 ? int16_t{32767} : int16_t{-32767};
    expectSingleWindowMatchesWindowDot(fc, input, filters);
    for (ConvolutionIsa isa : runnableIsas()) {
        const OutputTensor out =
            referenceConvolution(fc, input, filters, isa);
        EXPECT_EQ(out.at(0, 0, 0), int64_t{32767} * 65535 * 1000);
        EXPECT_EQ(out.at(0, 0, 1), int64_t{-32767} * 65535 * 1000);
        EXPECT_EQ(out.at(0, 0, 2), int64_t{-32768} * 65535 * 1000);
        EXPECT_EQ(out.at(0, 0, 3), 0);
    }
}

TEST(Reference, ShapeMismatchPanics)
{
    LayerSpec spec = smallLayer();
    NeuronTensor wrong(3, 4, 2);
    std::vector<FilterTensor> filters(2, FilterTensor(2, 2, 2));
    EXPECT_DEATH(referenceConvolution(spec, wrong, filters),
                 "shape mismatch");
    NeuronTensor input(4, 4, 2);
    std::vector<FilterTensor> too_few(1, FilterTensor(2, 2, 2));
    EXPECT_DEATH(referenceConvolution(spec, input, too_few),
                 "filter count");
}

} // namespace
} // namespace dnn
} // namespace pra
