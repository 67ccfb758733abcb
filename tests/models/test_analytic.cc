/**
 * @file
 * Tests for the term-count models behind Figures 2 and 3.
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/analytic/term_count.h"

namespace pra {
namespace models {
namespace {

TEST(TermCount, DadnCountsSixteenPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    auto raw = synth.synthesizeFixed16(0);
    auto trimmed = synth.synthesizeFixed16Trimmed(0);
    auto counts = countLayerTerms16(layer, raw, trimmed, true,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.dadn, 16.0 * layer.products());
}

TEST(TermCount, StripesCountsPrecisionPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[1]; // p == 7.
    auto raw = synth.synthesizeFixed16(1);
    auto trimmed = synth.synthesizeFixed16Trimmed(1);
    auto counts = countLayerTerms16(layer, raw, trimmed, false,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.stripes,
                     static_cast<double>(layer.profiledPrecision) *
                         layer.products());
}

TEST(TermCount, FirstLayerCvnEqualsDadn)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    auto raw = synth.synthesizeFixed16(0);
    auto trimmed = synth.synthesizeFixed16Trimmed(0);
    auto first = countLayerTerms16(layer, raw, trimmed, true,
                                   sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(first.cvn, first.dadn);
    auto later = countLayerTerms16(layer, raw, trimmed, false,
                                   sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(later.cvn, later.zn);
}

TEST(TermCount, ZeroInputZeroesValueBasedCounts)
{
    auto net = dnn::makeTinyNetwork();
    const auto &layer = net.layers[0];
    dnn::NeuronTensor zeros(layer.inputX, layer.inputY,
                            layer.inputChannels);
    auto counts = countLayerTerms16(layer, zeros, zeros, false,
                                    sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.zn, 0.0);
    EXPECT_DOUBLE_EQ(counts.praRaw, 0.0);
    EXPECT_DOUBLE_EQ(counts.praTrimmed, 0.0);
    EXPECT_GT(counts.dadn, 0.0);
    EXPECT_GT(counts.stripes, 0.0);
}

TEST(TermCount, FcSelectionHasNoImageLayer)
{
    // An FC-selected network starts at fc6, whose input is a pooled
    // ReLU output, not the image: Cnvlutin skips its zeros like
    // every later layer's, so CVN equals ZN over the tail. The
    // convolutional front keeps its dense image layer.
    auto fc = dnn::makeAlexNet(dnn::LayerSelect::Fc);
    dnn::ActivationSynthesizer fc_synth(fc);
    auto tail = countNetworkTerms16(fc, fc_synth, sim::SampleSpec{8});
    EXPECT_EQ(tail.cvn, tail.zn);

    auto conv = dnn::makeAlexNet(dnn::LayerSelect::Conv);
    dnn::ActivationSynthesizer conv_synth(conv);
    auto front = countNetworkTerms16(conv, conv_synth,
                                     sim::SampleSpec{8});
    EXPECT_GT(front.cvn, front.zn);
}

TEST(TermCount, OrderingInvariants)
{
    // PRA-red <= PRA-fp16 <= 16/p * stripes ... and everything is
    // bounded by the DaDN baseline.
    for (const auto &net : {dnn::makeAlexNet(), dnn::makeVggM()}) {
        dnn::ActivationSynthesizer synth(net);
        auto rel = countNetworkTerms16(net, synth, sim::SampleSpec{64});
        EXPECT_GT(rel.praRed, 0.0) << net.name;
        EXPECT_LE(rel.praRed, rel.praFp16) << net.name;
        EXPECT_LT(rel.praFp16, rel.stripes) << net.name;
        EXPECT_LT(rel.stripes, 1.0) << net.name;
        EXPECT_LE(rel.zn, rel.cvn) << net.name;
        EXPECT_LT(rel.cvn, 1.0) << net.name;
        // PRA beats pure zero skipping (the paper's headline claim).
        EXPECT_LT(rel.praFp16, rel.zn) << net.name;
    }
}

TEST(TermCount, MatchesPaperFigure2Magnitudes)
{
    // Section II: PRA-fp16 ~10%, PRA-red ~8%, STR ~53%, ZN ~39%
    // on average. Allow generous tolerances: these are shape checks.
    std::vector<dnn::Network> nets = dnn::makeAllNetworks();
    double pra_fp16 = 0.0;
    double pra_red = 0.0;
    double stripes = 0.0;
    for (const auto &net : nets) {
        dnn::ActivationSynthesizer synth(net);
        auto rel = countNetworkTerms16(net, synth, sim::SampleSpec{24});
        pra_fp16 += rel.praFp16;
        pra_red += rel.praRed;
        stripes += rel.stripes;
    }
    pra_fp16 /= nets.size();
    pra_red /= nets.size();
    stripes /= nets.size();
    EXPECT_NEAR(pra_fp16, 0.10, 0.05);
    EXPECT_NEAR(pra_red, 0.08, 0.04);
    EXPECT_NEAR(stripes, 0.53, 0.12);
}

TEST(TermCount, QuantizedOrderingAndMagnitudes)
{
    // Figure 3: zero skipping removes ~30%, PRA up to ~71%.
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto rel = countNetworkTerms8(net, synth, sim::SampleSpec{48});
    EXPECT_LT(rel.pra, rel.zeroSkip);
    EXPECT_LT(rel.zeroSkip, 1.0);
    EXPECT_GT(rel.pra, 0.1);
    EXPECT_LT(rel.pra, 0.6);
}

TEST(TermCount, SamplingApproximatesFullCount)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    auto full = countNetworkTerms16(net, synth, sim::SampleSpec{0});
    auto sampled = countNetworkTerms16(net, synth, sim::SampleSpec{8});
    EXPECT_NEAR(sampled.praFp16 / full.praFp16, 1.0, 0.15);
    EXPECT_NEAR(sampled.zn / full.zn, 1.0, 0.15);
}

} // namespace
} // namespace models
} // namespace pra
