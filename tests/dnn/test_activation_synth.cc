/**
 * @file
 * Tests for the calibrated synthetic activation generator — the
 * substitute for the paper's real ImageNet traces (DESIGN.md §3).
 * The key checks: determinism, and that the synthesized streams hit
 * the paper's Table I bit statistics they were calibrated against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "fixedpoint/fixed_point.h"
#include "util/random.h"

namespace pra {
namespace dnn {
namespace {

TEST(DiscreteExponential, UniformWhenLambdaZero)
{
    DiscreteExponential d(0.0, 15);
    EXPECT_NEAR(d.expectedValue(), 8.0, 1e-9);
    // Mean popcount of 1..15 = 32/15.
    EXPECT_NEAR(d.expectedPopcount(), 32.0 / 15.0, 1e-9);
}

TEST(DiscreteExponential, LargeLambdaConcentratesOnOne)
{
    DiscreteExponential d(1e6, 255);
    EXPECT_NEAR(d.expectedValue(), 1.0, 1e-3);
    EXPECT_NEAR(d.expectedPopcount(), 1.0, 1e-3);
}

TEST(DiscreteExponential, SampleMatchesExpectation)
{
    DiscreteExponential d(8.0, 511);
    util::Xoshiro256 rng(99);
    double sum_pop = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; i++) {
        uint32_t v = d.sample(rng);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 511u);
        sum_pop += fixedpoint::essentialBits(static_cast<uint16_t>(v));
    }
    EXPECT_NEAR(sum_pop / n, d.expectedPopcount(), 0.05);
}

TEST(CalibrateLambda, HitsTarget)
{
    for (double target : {1.5, 2.0, 2.5, 3.0}) {
        double lambda = calibrateLambda(511, target);
        DiscreteExponential d(lambda, 511);
        EXPECT_NEAR(d.expectedPopcount(), target, 0.05) << target;
    }
}

TEST(CalibrateLambda, ClampsUnreachableTargets)
{
    // Above uniform mean -> lambda 0.
    EXPECT_EQ(calibrateLambda(255, 7.9), 0.0);
    // Below 1 -> concentrate on value 1.
    EXPECT_GE(calibrateLambda(255, 0.5), 1e5);
}

/** The sampler's reference inversion: lower_bound over the CDF. */
uint32_t
referenceFromUniform(const DiscreteExponential &d, double u)
{
    std::span<const double> cdf = d.cdf();
    size_t idx = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (idx >= cdf.size())
        idx = cdf.size() - 1;
    return static_cast<uint32_t>(idx + 1);
}

const uint32_t kSamplerMaxValues[] = {1, 2, 3, 255, 2047, 65535};

/** Uniform at lambda 0, a calibrated rate, and concentrated at 1. */
std::vector<double>
samplerLambdas(uint32_t max_value)
{
    // Halfway between the reachable popcount extremes; for max 1 and 2
    // both extremes are 1, so this exercises the uniform clamp.
    double target = 0.5 * (1.0 + expectedPopcount(0.0, max_value));
    return {0.0, calibrateLambda(max_value, target), 1e6};
}

TEST(DiscreteExponential, GuideTableMatchesLowerBound)
{
    for (uint32_t max_value : kSamplerMaxValues) {
        for (double lambda : samplerLambdas(max_value)) {
            DiscreteExponential d(lambda, max_value);
            ASSERT_EQ(d.cdf().size(), max_value);
            ASSERT_EQ(d.cdf().back(), 1.0);
            std::vector<double> points = {0.0, std::nextafter(1.0, 0.0)};
            // Every exact CDF value and its neighbours: the scan must
            // stop on ties exactly where lower_bound does.
            for (double c : d.cdf()) {
                points.push_back(std::nextafter(c, 0.0));
                if (c < 1.0) {
                    points.push_back(c);
                    points.push_back(std::nextafter(c, 1.0));
                }
            }
            // Every guide bucket edge j / K and the draw just below it.
            const uint32_t buckets = std::bit_ceil(max_value);
            for (uint32_t j = 0; j < buckets; j++) {
                double edge = static_cast<double>(j) / buckets;
                points.push_back(edge);
                points.push_back(std::nextafter(edge, 0.0));
            }
            util::Xoshiro256 rng(max_value ^ 0x91de00ull);
            for (int i = 0; i < 100000; i++)
                points.push_back(rng.nextDouble());
            for (double u : points) {
                if (u < 0.0 || u >= 1.0)
                    continue;
                ASSERT_EQ(d.fromUniform(u), referenceFromUniform(d, u))
                    << "max " << max_value << " lambda " << lambda
                    << " u " << u;
            }
        }
    }
}

TEST(DiscreteExponential, SampleIsFromUniformOfNextDouble)
{
    DiscreteExponential d(8.0, 2047);
    util::Xoshiro256 a(7);
    util::Xoshiro256 b(7);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(d.sample(a), d.fromUniform(b.nextDouble()));
}

TEST(DiscreteExponential, TableFreePopcountIsBitEqual)
{
    for (uint32_t max_value : kSamplerMaxValues)
        for (double lambda : samplerLambdas(max_value))
            EXPECT_EQ(expectedPopcount(lambda, max_value),
                      DiscreteExponential(lambda, max_value)
                          .expectedPopcount())
                << "max " << max_value << " lambda " << lambda;
}

/**
 * calibrateLambda's bisection as it reads each step's popcount off a
 * constructed distribution rather than the table-free helper.
 */
double
constructorCalibratedLambda(uint32_t max_value, double target)
{
    double uniform_pop =
        DiscreteExponential(0.0, max_value).expectedPopcount();
    if (target >= uniform_pop)
        return 0.0;
    if (target <= 1.0)
        return 1e6;
    double lo = 0.0;
    double hi = 1e6;
    for (int iter = 0; iter < 60; iter++) {
        double mid = (lo <= 0.0) ? std::min(1.0, hi / 2)
                                 : std::sqrt(lo * hi);
        double pop = DiscreteExponential(mid, max_value)
                         .expectedPopcount();
        if (pop > target)
            lo = mid;
        else
            hi = mid;
        if (hi / std::max(lo, 1e-12) < 1.0001)
            break;
    }
    return std::sqrt(std::max(lo, 1e-12) * hi);
}

TEST(CalibrateLambda, BitEqualToConstructorPopcounts)
{
    for (uint32_t max_value : {3u, 15u, 255u, 511u, 2047u, 65535u})
        for (double target : {0.5, 1.3, 2.2, 3.0})
            EXPECT_EQ(calibrateLambda(max_value, target),
                      constructorCalibratedLambda(max_value, target))
                << "max " << max_value << " target " << target;
}

TEST(FilterWeightStream, DrawsExactlyWhatNextInRangeDraws)
{
    // next() hoists Lemire's bound and rejection threshold out of the
    // draw; the weights must stay rng.nextInRange's, draw for draw,
    // at the narrowest, the reference and the widest weight range.
    const LayerSpec layer = LayerSpec::fullyConnected("stream", 64, 8);
    for (int range : {1, 2, kReferenceWeightRange, 32767}) {
        const uint64_t seed = 0x5eed ^ static_cast<uint64_t>(range);
        FilterWeightStream stream(layer, seed, range);
        util::Xoshiro256 rng(seed ^ util::fnv1a(layer.name));
        for (int i = 0; i < 100000; i++)
            ASSERT_EQ(stream.next(), rng.nextInRange(-range, range))
                << "range " << range << " draw " << i;
    }
}

TEST(ActivationSynth, Deterministic)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer a(net, 123);
    ActivationSynthesizer b(net, 123);
    auto ta = a.synthesizeFixed16(1);
    auto tb = b.synthesizeFixed16(1);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); i++)
        EXPECT_EQ(ta.flat()[i], tb.flat()[i]);
}

TEST(ActivationSynth, SeedChangesStream)
{
    auto net = makeTinyNetwork();
    ActivationSynthesizer a(net, 1);
    ActivationSynthesizer b(net, 2);
    auto ta = a.synthesizeFixed16(1);
    auto tb = b.synthesizeFixed16(1);
    size_t diff = 0;
    for (size_t i = 0; i < ta.size(); i++)
        if (ta.flat()[i] != tb.flat()[i])
            diff++;
    EXPECT_GT(diff, ta.size() / 4);
}

TEST(ActivationSynth, TrimmedPairsWithRaw)
{
    // Table V comparisons need the trimmed stream to be exactly the
    // raw stream under the layer mask.
    auto net = makeAlexNet();
    ActivationSynthesizer synth(net);
    for (int layer = 1; layer < 3; layer++) {
        auto raw = synth.synthesizeFixed16(layer);
        auto trimmed = synth.synthesizeFixed16Trimmed(layer);
        int anchor = synth.fixed16Params(layer).anchorLsb;
        uint16_t mask = net.layers[layer].precisionWindow(anchor).mask();
        for (size_t i = 0; i < raw.size(); i++)
            EXPECT_EQ(trimmed.flat()[i],
                      static_cast<uint16_t>(raw.flat()[i] & mask));
    }
}

TEST(ActivationSynth, HitsTableIStatistics16Bit)
{
    // The ReLU layers' streams must reproduce the calibration
    // targets: zero fraction and NZ essential-bit content.
    for (const auto &net :
         {makeAlexNet(), makeVggM(), makeVgg19()}) {
        ActivationSynthesizer synth(net);
        double nz_sum = 0.0;
        double zero_sum = 0.0;
        int layers = 0;
        // Skip layer 0: its input is the image, not ReLU output.
        for (size_t i = 1; i < std::min<size_t>(4, net.layers.size());
             i++) {
            auto t = synth.synthesizeFixed16(static_cast<int>(i));
            nz_sum += fixedpoint::essentialBitFractionNonZero(t.flat(),
                                                              16);
            zero_sum += fixedpoint::zeroFraction(t.flat());
            layers++;
        }
        EXPECT_NEAR(nz_sum / layers, net.targets.nz16, 0.02)
            << net.name;
        EXPECT_NEAR(zero_sum / layers, net.targets.zeroFraction16(),
                    0.02)
            << net.name;
    }
}

TEST(ActivationSynth, HitsTableIStatistics8Bit)
{
    for (const auto &net : {makeAlexNet(), makeVggS()}) {
        ActivationSynthesizer synth(net);
        auto t = synth.synthesizeQuant8(1);
        for (uint16_t v : t.flat())
            EXPECT_LE(v, 255);
        EXPECT_NEAR(fixedpoint::essentialBitFractionNonZero(t.flat(), 8),
                    net.targets.nz8, 0.02)
            << net.name;
        EXPECT_NEAR(fixedpoint::zeroFraction(t.flat()),
                    net.targets.zeroFraction8(), 0.02)
            << net.name;
    }
}

TEST(ActivationSynth, FirstLayerIsImageLike)
{
    auto net = makeAlexNet();
    ActivationSynthesizer synth(net);
    auto image = synth.synthesizeFixed16(0);
    // Dense: nearly no zeros (CVN cannot skip layer 1, Section II).
    EXPECT_LT(fixedpoint::zeroFraction(image.flat()),
              2.5 * kImageZeroFraction);
    // Values fill the layer's precision window.
    double nz = fixedpoint::essentialBitFractionNonZero(image.flat(),
                                                        16);
    EXPECT_GT(nz, 0.2); // Much denser than the ReLU streams.
}

TEST(ActivationSynth, FcFrontSkipsImageOverride)
{
    // An FC-selected network starts at fc6, whose input is a pooled
    // ReLU output, not the image: the first-layer density override
    // must not apply, so the stream keeps the network's Table I zero
    // fraction.
    auto net = makeAlexNet(LayerSelect::Fc);
    ASSERT_EQ(net.layers.front().kind, LayerKind::FullyConnected);
    ActivationSynthesizer synth(net);
    EXPECT_NEAR(synth.fixed16Params(0).zeroFraction,
                net.targets.zeroFraction16(), 1e-12);
    auto stream = synth.synthesizeFixed16(0);
    EXPECT_EQ(stream.sizeX(), 1);
    EXPECT_EQ(stream.sizeY(), 1);
    EXPECT_EQ(stream.sizeI(), 9216);
    EXPECT_GT(fixedpoint::zeroFraction(stream.flat()), 0.3);

    // A conv-front network keeps the image-like layer 0 (the
    // existing behavior, byte-identical to the conv-only zoo).
    auto conv_net = makeAlexNet(LayerSelect::All);
    ActivationSynthesizer conv_synth(conv_net);
    EXPECT_DOUBLE_EQ(conv_synth.fixed16Params(0).zeroFraction,
                     kImageZeroFraction);
}

TEST(ActivationSynth, TrimRemovesRoughlyTableVBudget)
{
    // The essential-bit content removed by trimming should be near
    // the network's software-guidance budget.
    auto net = makeVggM();
    ActivationSynthesizer synth(net);
    double raw_bits = 0.0;
    double trim_bits = 0.0;
    for (int i = 1; i < 4; i++) {
        auto raw = synth.synthesizeFixed16(i);
        auto trim = synth.synthesizeFixed16Trimmed(i);
        for (uint16_t v : raw.flat())
            raw_bits += fixedpoint::essentialBits(v);
        for (uint16_t v : trim.flat())
            trim_bits += fixedpoint::essentialBits(v);
    }
    double removed = 1.0 - trim_bits / raw_bits;
    EXPECT_NEAR(removed, net.targets.softwareBenefit, 0.06);
}

TEST(ActivationSynth, ValuesFitSixteenBitWindow)
{
    auto net = makeVgg19(); // p == 13: tightest window fit.
    ActivationSynthesizer synth(net);
    for (int i : {0, 8, 15}) {
        const auto &params = synth.fixed16Params(i);
        EXPECT_LE(params.anchorLsb + params.precisionBits, 16);
        auto t = synth.synthesizeFixed16(i);
        (void)t; // Construction would panic on overflow.
    }
}

TEST(SynthesizeFilters, DeterministicAndBounded)
{
    auto layer = makeTinyNetwork().layers[0];
    auto f1 = synthesizeFilters(layer, 42, 100);
    auto f2 = synthesizeFilters(layer, 42, 100);
    ASSERT_EQ(f1.size(), static_cast<size_t>(layer.numFilters));
    for (size_t f = 0; f < f1.size(); f++) {
        for (size_t i = 0; i < f1[f].size(); i++) {
            int16_t w = f1[f].flat()[i];
            EXPECT_EQ(w, f2[f].flat()[i]);
            EXPECT_GE(w, -100);
            EXPECT_LE(w, 100);
        }
    }
}

} // namespace
} // namespace dnn
} // namespace pra
