/**
 * @file
 * Tests for layer geometry (paper Section IV-A): conv output
 * formulas with floor stride semantics, the fully-connected 1x1xI
 * lowering, and kind-aware validation.
 */

#include <gtest/gtest.h>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"

namespace pra {
namespace dnn {
namespace {

/** Human-readable kind name ("conv", "fc", "pool"). */
const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv: return "conv";
      case LayerKind::FullyConnected: return "fc";
      case LayerKind::Pool: return "pool";
    }
    return "?";
}

LayerSpec
makeLayer(int in, int channels, int f, int filters, int stride, int pad)
{
    LayerSpec spec;
    spec.name = "test";
    spec.inputX = in;
    spec.inputY = in;
    spec.inputChannels = channels;
    spec.filterX = f;
    spec.filterY = f;
    spec.numFilters = filters;
    spec.stride = stride;
    spec.pad = pad;
    spec.profiledPrecision = 8;
    return spec;
}

TEST(ConvLayer, PaperOutputFormula)
{
    // Ox = (Ix - Fx)/S + 1 with no padding (Section IV-A).
    LayerSpec spec = makeLayer(227, 3, 11, 96, 4, 0);
    EXPECT_EQ(spec.outX(), 55);
    EXPECT_EQ(spec.outY(), 55);
    EXPECT_EQ(spec.windows(), 55 * 55);
}

TEST(ConvLayer, PaddedOutput)
{
    LayerSpec spec = makeLayer(13, 256, 3, 384, 1, 1);
    EXPECT_EQ(spec.outX(), 13);
    EXPECT_EQ(spec.outY(), 13);
}

TEST(ConvLayer, ProductCount)
{
    LayerSpec spec = makeLayer(13, 256, 3, 384, 1, 1);
    EXPECT_EQ(spec.synapsesPerFilter(), 3 * 3 * 256);
    EXPECT_EQ(spec.products(),
              static_cast<int64_t>(13) * 13 * 384 * 3 * 3 * 256);
}

TEST(ConvLayer, BricksPerWindowRoundsChannelsUp)
{
    LayerSpec spec = makeLayer(27, 96, 5, 256, 1, 2);
    EXPECT_EQ(spec.bricksPerWindow(), 5 * 5 * (96 / kBrickSize));
    LayerSpec odd = makeLayer(27, 3, 5, 256, 1, 2);
    EXPECT_EQ(odd.bricksPerWindow(), 5 * 5 * 1);
    LayerSpec mid = makeLayer(27, 20, 5, 256, 1, 2);
    EXPECT_EQ(mid.bricksPerWindow(), 5 * 5 * 2);
}

TEST(ConvLayer, InputNeuronCount)
{
    LayerSpec spec = makeLayer(6, 1024, 3, 1024, 1, 1);
    EXPECT_EQ(spec.inputNeurons(), 6 * 6 * 1024);
}

TEST(ConvLayer, PrecisionWindowAnchoring)
{
    LayerSpec spec = makeLayer(13, 256, 3, 384, 1, 1);
    spec.profiledPrecision = 9;
    auto w = spec.precisionWindow(2);
    EXPECT_EQ(w.lsb, 2);
    EXPECT_EQ(w.msb, 10);
    EXPECT_EQ(w.bits(), 9);
}

TEST(ConvLayer, PrecisionWindowClampsAtTop)
{
    LayerSpec spec = makeLayer(13, 256, 3, 384, 1, 1);
    spec.profiledPrecision = 16;
    auto w = spec.precisionWindow(4);
    EXPECT_EQ(w.msb, 15);
    EXPECT_TRUE(w.valid());
}

TEST(ConvLayer, ValidityChecks)
{
    EXPECT_TRUE(makeLayer(13, 256, 3, 384, 1, 1).valid());
    EXPECT_FALSE(makeLayer(0, 256, 3, 384, 1, 1).valid());
    EXPECT_FALSE(makeLayer(13, 0, 3, 384, 1, 1).valid());
    EXPECT_FALSE(makeLayer(13, 256, 0, 384, 1, 1).valid());
    EXPECT_FALSE(makeLayer(13, 256, 3, 0, 1, 1).valid());
    EXPECT_FALSE(makeLayer(13, 256, 3, 384, 0, 1).valid());
    EXPECT_FALSE(makeLayer(13, 256, 3, 384, 1, -1).valid());
    // Filter larger than padded input.
    EXPECT_FALSE(makeLayer(3, 8, 7, 16, 1, 1).valid());
    // Bad precision.
    LayerSpec bad = makeLayer(13, 256, 3, 384, 1, 1);
    bad.profiledPrecision = 0;
    EXPECT_FALSE(bad.valid());
    bad.profiledPrecision = 17;
    EXPECT_FALSE(bad.valid());
}

TEST(ConvLayer, FilterFitIsCheckedPerAxisSymmetrically)
{
    // X fits, Y does not: must be rejected (the historical check
    // covered X only via a dead clause).
    LayerSpec tall = makeLayer(13, 8, 3, 16, 1, 0);
    tall.filterY = 15;
    EXPECT_FALSE(tall.valid());
    // Y fits, X does not.
    LayerSpec wide = makeLayer(13, 8, 3, 16, 1, 0);
    wide.filterX = 15;
    EXPECT_FALSE(wide.valid());
    // Padding can make either fit again.
    tall.pad = 1;
    EXPECT_TRUE(tall.valid());
}

TEST(ConvLayer, NonTilingStrideUsesFloorSemantics)
{
    // VGG-M conv2: floor((54 + 2*1 - 5) / 2) + 1 = 26 — the stride
    // does not tile the padded input and the layer is still valid
    // (trailing positions are dropped).
    LayerSpec spec = makeLayer(54, 96, 5, 256, 2, 1);
    EXPECT_EQ((spec.inputX + 2 * spec.pad - spec.filterX) % spec.stride,
              1);
    EXPECT_TRUE(spec.valid());
    EXPECT_EQ(spec.outX(), 26);
    EXPECT_EQ(spec.outY(), 26);

    // Degenerate single-window case: filter exactly covers the
    // padded input regardless of stride.
    LayerSpec one = makeLayer(7, 16, 7, 8, 3, 0);
    EXPECT_TRUE(one.valid());
    EXPECT_EQ(one.outX(), 1);
    EXPECT_EQ(one.windows(), 1);
}

TEST(FullyConnected, FactoryBuildsCanonicalLowering)
{
    LayerSpec spec = LayerSpec::fullyConnected("fc6", 9216, 4096, 10);
    EXPECT_EQ(spec.kind, LayerKind::FullyConnected);
    EXPECT_TRUE(spec.valid());
    EXPECT_EQ(spec.inputX, 1);
    EXPECT_EQ(spec.inputY, 1);
    EXPECT_EQ(spec.inputChannels, 9216);
    EXPECT_EQ(spec.filterX, 1);
    EXPECT_EQ(spec.filterY, 1);
    EXPECT_EQ(spec.numFilters, 4096);
    EXPECT_EQ(spec.profiledPrecision, 10);
    // One window; every output neuron consumes all inputs once.
    EXPECT_EQ(spec.windows(), 1);
    EXPECT_EQ(spec.outX(), 1);
    EXPECT_EQ(spec.outY(), 1);
    EXPECT_EQ(spec.synapsesPerFilter(), 9216);
    EXPECT_EQ(spec.synapses(), static_cast<int64_t>(9216) * 4096);
    EXPECT_EQ(spec.products(), spec.synapses());
    EXPECT_EQ(spec.bricksPerWindow(), (9216 + kBrickSize - 1) /
                                          kBrickSize);
    EXPECT_EQ(spec.inputNeurons(), 9216);
}

TEST(FullyConnected, MatchesOneByOneConvTwinExactly)
{
    LayerSpec fc = LayerSpec::fullyConnected("twin", 800, 64, 8);
    LayerSpec twin = makeLayer(1, 800, 1, 64, 1, 0);
    twin.name = "twin";
    ASSERT_TRUE(twin.valid());
    EXPECT_EQ(fc.products(), twin.products());
    EXPECT_EQ(fc.windows(), twin.windows());
    EXPECT_EQ(fc.bricksPerWindow(), twin.bricksPerWindow());
    EXPECT_EQ(fc.synapsesPerFilter(), twin.synapsesPerFilter());
    EXPECT_EQ(fc.inputNeurons(), twin.inputNeurons());
}

TEST(FullyConnected, RejectsNonCanonicalForms)
{
    LayerSpec spec = LayerSpec::fullyConnected("fc", 128, 32, 8);
    ASSERT_TRUE(spec.valid());
    LayerSpec bad = spec;
    bad.inputX = 2;
    EXPECT_FALSE(bad.valid());
    bad = spec;
    bad.filterY = 2;
    bad.inputY = 2; // Filter still fits; the kind check must reject.
    EXPECT_FALSE(bad.valid());
    bad = spec;
    bad.stride = 2;
    EXPECT_FALSE(bad.valid());
    bad = spec;
    bad.pad = 1;
    EXPECT_FALSE(bad.valid());
    bad = spec;
    bad.inputChannels = 0;
    EXPECT_FALSE(bad.valid());
}

TEST(LayerKind, NamesAndSelection)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv), "conv");
    EXPECT_STREQ(layerKindName(LayerKind::FullyConnected), "fc");
    EXPECT_TRUE(layerSelected(LayerKind::Conv, LayerSelect::Conv));
    EXPECT_FALSE(layerSelected(LayerKind::FullyConnected,
                               LayerSelect::Conv));
    EXPECT_FALSE(layerSelected(LayerKind::Conv, LayerSelect::Fc));
    EXPECT_TRUE(layerSelected(LayerKind::FullyConnected,
                              LayerSelect::Fc));
    EXPECT_TRUE(layerSelected(LayerKind::Conv, LayerSelect::All));
    EXPECT_TRUE(layerSelected(LayerKind::FullyConnected,
                              LayerSelect::All));
}

TEST(LayerSpec, ReadsImageByOrdinalThenIndex)
{
    // A stamped ordinal decides; an unstamped layer falls back to the
    // index it is given and, given none, never reads the image.
    LayerSpec conv = makeLayer(8, 3, 3, 4, 1, 1);
    EXPECT_TRUE(conv.readsImage(0));
    EXPECT_FALSE(conv.readsImage(1));
    EXPECT_FALSE(conv.readsImage());
    conv.ordinal = 0;
    EXPECT_TRUE(conv.readsImage());
    EXPECT_TRUE(conv.readsImage(2));
    conv.ordinal = 3;
    EXPECT_FALSE(conv.readsImage(0));

    // Only a convolutional front reads the image.
    LayerSpec fc = LayerSpec::fullyConnected("fc", 64, 8);
    fc.ordinal = 0;
    EXPECT_FALSE(fc.readsImage(0));
}

/** Geometry identity sweep: windows * stride relation. */
class StrideSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(StrideSweep, OutputFitsInput)
{
    int stride = GetParam();
    LayerSpec spec = makeLayer(32, 16, 3, 8, stride, 0);
    ASSERT_TRUE(spec.valid());
    // Last window must not read past the input.
    int last_start = (spec.outX() - 1) * stride;
    EXPECT_LE(last_start + spec.filterX, spec.inputX);
    // One more window would overflow.
    EXPECT_GT(last_start + stride + spec.filterX, spec.inputX);
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweep,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace dnn
} // namespace pra
