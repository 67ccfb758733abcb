/**
 * @file
 * Tests for the term-count models behind Figures 2 and 3.
 */

#include <gtest/gtest.h>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/analytic/term_count.h"
#include "tests/models/term_count_oracle.h"

namespace pra {
namespace models {
namespace {

TEST(TermCount, DadnCountsSixteenPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[0];
    auto counts = countLayerTerms16(
        layer, sim::LayerWorkload(synth.synthesizeFixed16(0)), true,
        sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(counts.dadn, 16.0 * layer.products());
}

TEST(TermCount, StripesCountsPrecisionPerProduct)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    const auto &layer = net.layers[1]; // p == 7.
    auto counts = countLayerTerms16(
        layer, sim::LayerWorkload(synth.synthesizeFixed16(1)), false,
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
    const sim::LayerWorkload raw(synth.synthesizeFixed16(0));
    auto first = countLayerTerms16(layer, raw, true, sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(first.cvn, first.dadn);
    auto later = countLayerTerms16(layer, raw, false, sim::SampleSpec{0});
    EXPECT_DOUBLE_EQ(later.cvn, later.zn);
}

TEST(TermCount, ZeroInputZeroesValueBasedCounts)
{
    auto net = dnn::makeTinyNetwork();
    const auto &layer = net.layers[0];
    dnn::NeuronTensor zeros(layer.inputX, layer.inputY,
                            layer.inputChannels);
    auto counts = countLayerTerms16(layer, sim::LayerWorkload(zeros),
                                    false, sim::SampleSpec{0});
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

TEST(TermCount, NetworkCountsMatchElementWalk)
{
    // Both figures count from the brick planes; the element walk over
    // the synthesized tensors must give the same relative series bit
    // for bit, sampled and in full. Tiny's conv1 reads the image (CVN
    // stays dense there), AlexNet's FC tail does not, and the 8-bit
    // counts check the halved 16-bit baseline against 8 per product.
    for (const dnn::Network &net :
         {dnn::makeTinyNetwork(dnn::LayerSelect::All),
          dnn::makeAlexNet(dnn::LayerSelect::Fc)}) {
        dnn::ActivationSynthesizer synth(net);
        for (int units : {0, 4}) {
            SCOPED_TRACE(net.name + " units=" + std::to_string(units));
            const sim::SampleSpec sample{units};
            NetworkTerms16 planes16 =
                countNetworkTerms16(net, synth, sample);
            NetworkTerms16 walk16 = walkNetworkTerms16(net, synth, sample);
            EXPECT_EQ(planes16.zn, walk16.zn);
            EXPECT_EQ(planes16.cvn, walk16.cvn);
            EXPECT_EQ(planes16.stripes, walk16.stripes);
            EXPECT_EQ(planes16.praFp16, walk16.praFp16);
            EXPECT_EQ(planes16.praRed, walk16.praRed);

            NetworkTerms8 planes8 = countNetworkTerms8(net, synth, sample);
            NetworkTerms8 walk8 = walkNetworkTerms8(net, synth, sample);
            EXPECT_EQ(planes8.zeroSkip, walk8.zeroSkip);
            EXPECT_EQ(planes8.pra, walk8.pra);
        }
    }
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
