/**
 * @file
 * Tests for the propagated-activation pipeline (dnn/propagate.h):
 * pooling and requantization building blocks against hand-computed
 * values, the chain wiring against the reference convolution, the
 * shared layer-0 image stream, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/propagate.h"
#include "dnn/reference.h"

namespace pra {
namespace dnn {
namespace {

/** A 2-layer conv -> pool -> conv -> fc pipeline, hand-sized. */
Network
makePipeline()
{
    Network net;
    net.name = "PipelineUT";
    net.targets = {0.08, 0.18, 0.31, 0.44, 0.19};
    LayerSpec c1;
    c1.name = "c1";
    c1.inputX = 6;
    c1.inputY = 6;
    c1.inputChannels = 2;
    c1.filterX = 3;
    c1.filterY = 3;
    c1.numFilters = 4;
    c1.stride = 1;
    c1.pad = 1;
    c1.profiledPrecision = 8;
    LayerSpec p1 = LayerSpec::pool("p1", 6, 6, 4, 2, 2, PoolOp::Max);
    LayerSpec c2;
    c2.name = "c2";
    c2.inputX = 3;
    c2.inputY = 3;
    c2.inputChannels = 4;
    c2.filterX = 2;
    c2.filterY = 2;
    c2.numFilters = 3;
    c2.stride = 1;
    c2.pad = 0;
    c2.profiledPrecision = 7;
    LayerSpec f1 = LayerSpec::fullyConnected("f1", 2 * 2 * 3, 5, 6);
    net.layers = {c1, p1, c2, f1};
    int ordinal = 0;
    for (auto &layer : net.layers)
        layer.ordinal = layer.priced() ? ordinal++ : -1;
    return net;
}

/**
 * The conv/FC output of @p layer computed window by window with the
 * scalar referenceWindowDot() oracle, independent of the blocked
 * kernel propagateChain() runs.
 */
OutputTensor
oracleConvolution(const LayerSpec &layer, const NeuronTensor &input,
                  const std::vector<FilterTensor> &filters)
{
    OutputTensor out(layer.outX(), layer.outY(), layer.numFilters);
    for (int f = 0; f < layer.numFilters; f++)
        for (int wy = 0; wy < layer.outY(); wy++)
            for (int wx = 0; wx < layer.outX(); wx++)
                out.at(wx, wy, f) = referenceWindowDot(
                    layer, input, filters[static_cast<size_t>(f)], wx,
                    wy);
    return out;
}

TEST(PoolForward, MaxPoolHandComputed)
{
    LayerSpec pool = LayerSpec::pool("p", 4, 4, 1, 2, 2, PoolOp::Max);
    Tensor3D<int64_t> in(4, 4, 1);
    // Row-major values 1..16: windows {1,2,5,6}, {3,4,7,8},
    // {9,10,13,14}, {11,12,15,16}.
    int64_t v = 1;
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 4; x++)
            in.at(x, y, 0) = v++;
    auto out = poolForward(pool, in);
    ASSERT_EQ(out.sizeX(), 2);
    ASSERT_EQ(out.sizeY(), 2);
    EXPECT_EQ(out.at(0, 0, 0), 6);
    EXPECT_EQ(out.at(1, 0, 0), 8);
    EXPECT_EQ(out.at(0, 1, 0), 14);
    EXPECT_EQ(out.at(1, 1, 0), 16);
}

TEST(PoolForward, AvgPoolHandComputed)
{
    LayerSpec pool = LayerSpec::pool("p", 4, 4, 1, 2, 2, PoolOp::Avg);
    Tensor3D<int64_t> in(4, 4, 1);
    int64_t v = 1;
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 4; x++)
            in.at(x, y, 0) = v++;
    auto out = poolForward(pool, in);
    EXPECT_EQ(out.at(0, 0, 0), (1 + 2 + 5 + 6) / 4);
    EXPECT_EQ(out.at(1, 1, 0), (11 + 12 + 15 + 16) / 4);
}

TEST(PoolForward, GlobalAvgPool)
{
    // NiN/GoogLeNet style: window == input, one output per channel.
    LayerSpec pool = LayerSpec::pool("p", 3, 3, 2, 3, 1, PoolOp::Avg);
    Tensor3D<int64_t> in(3, 3, 2);
    for (int y = 0; y < 3; y++)
        for (int x = 0; x < 3; x++) {
            in.at(x, y, 0) = 9;
            in.at(x, y, 1) = x + y;
        }
    auto out = poolForward(pool, in);
    ASSERT_EQ(out.sizeX(), 1);
    ASSERT_EQ(out.sizeY(), 1);
    EXPECT_EQ(out.at(0, 0, 0), 9);
    EXPECT_EQ(out.at(0, 0, 1), 18 / 9); // sum of (x+y) over 3x3 = 18.
}

TEST(PoolForward, CeilModeClampsOverhangingWindow)
{
    // 5 wide, 2x2/2 ceil: ceil((5-2)/2)+1 = 3 outputs; the last
    // window starts at 4 and only covers column 4.
    LayerSpec pool = LayerSpec::pool("p", 5, 1, 1, 2, 2, PoolOp::Max,
                                     0, true);
    ASSERT_EQ(pool.outX(), 3);
    Tensor3D<int64_t> in(5, 1, 1);
    for (int x = 0; x < 5; x++)
        in.at(x, 0, 0) = 10 * (x + 1);
    auto out = poolForward(pool, in);
    EXPECT_EQ(out.at(0, 0, 0), 20);
    EXPECT_EQ(out.at(1, 0, 0), 40);
    EXPECT_EQ(out.at(2, 0, 0), 50); // Clamped single-element window.
}

TEST(PoolForward, CeilClampDropsWindowsThatStartOutside)
{
    // Caffe's rule: a ceil-rounded window count is clamped so the
    // last window starts inside input+pad. in=3, k=2, s=2, pad=1:
    // unclamped ceil gives 3 windows, but the third would start at
    // 3 (>= input+pad == 4 is false... base 2*2-1 = 3 >= inputX 3)
    // and cover nothing; the clamp keeps 2.
    LayerSpec pool = LayerSpec::pool("p", 3, 3, 1, 2, 2, PoolOp::Max,
                                     1, true);
    ASSERT_TRUE(pool.valid());
    EXPECT_EQ(pool.outX(), 2);
    Tensor3D<int64_t> in(3, 3, 1);
    for (int y = 0; y < 3; y++)
        for (int x = 0; x < 3; x++)
            in.at(x, y, 0) = 1 + x + 3 * y;
    auto out = poolForward(pool, in); // Must not hit empty windows.
    EXPECT_EQ(out.at(0, 0, 0), 1);    // Window covers only (0,0).
    EXPECT_EQ(out.at(1, 1, 0), 9);    // Window {5,6,8,9}.
}

TEST(PoolForward, PadAtLeastWindowIsInvalid)
{
    // pad >= kernel would let floor-mode windows land entirely in
    // padding; valid() rejects it (Caffe enforces the same).
    LayerSpec pool = LayerSpec::pool("p", 4, 4, 1, 2, 2, PoolOp::Max,
                                     2, false);
    EXPECT_FALSE(pool.valid());
}

/**
 * poolForward's output recomputed channel by channel, tap by tap, with
 * bounds-checked element access: the per-channel definition the
 * channel-innermost kernel must reproduce exactly.
 */
Tensor3D<int64_t>
naivePool(const LayerSpec &layer, const Tensor3D<int64_t> &input)
{
    Tensor3D<int64_t> out(layer.outX(), layer.outY(),
                          layer.inputChannels);
    for (int i = 0; i < layer.inputChannels; i++)
        for (int wy = 0; wy < layer.outY(); wy++)
            for (int wx = 0; wx < layer.outX(); wx++) {
                int64_t best = 0;
                int64_t sum = 0;
                int count = 0;
                for (int fy = 0; fy < layer.filterY; fy++)
                    for (int fx = 0; fx < layer.filterX; fx++) {
                        int x = wx * layer.stride - layer.pad + fx;
                        int y = wy * layer.stride - layer.pad + fy;
                        if (x < 0 || x >= layer.inputX || y < 0 ||
                            y >= layer.inputY)
                            continue;
                        int64_t v = input.at(x, y, i);
                        best = count == 0 ? v : std::max(best, v);
                        sum += v;
                        count++;
                    }
                EXPECT_GT(count, 0);
                out.at(wx, wy, i) =
                    layer.poolOp == PoolOp::Max ? best : sum / count;
            }
    return out;
}

TEST(PoolForward, MultiChannelMatchesPerChannelReference)
{
    struct Shape
    {
        int inX, inY, window, stride, pad;
        bool ceil;
    };
    // Stride 1 and 2, pad 0 and > 0, and ceil-mode windows that
    // overhang the input edge (8 wide, 3/2 ceil: the last window
    // starts at 6 and covers only columns 6 and 7).
    const Shape shapes[] = {
        {5, 5, 2, 1, 0, false}, {6, 5, 3, 1, 1, false},
        {7, 7, 3, 2, 0, false}, {8, 7, 3, 2, 0, true},
        {7, 6, 3, 2, 1, true},
    };
    int overhanging = 0;
    util::Xoshiro256 rng(0x9001);
    for (const Shape &s : shapes)
        for (int channels : {1, 17, 64})
            for (PoolOp op : {PoolOp::Max, PoolOp::Avg}) {
                LayerSpec pool =
                    LayerSpec::pool("p", s.inX, s.inY, channels,
                                    s.window, s.stride, op, s.pad, s.ceil);
                ASSERT_TRUE(pool.valid());
                SCOPED_TRACE(std::to_string(s.inX) + "x" +
                             std::to_string(s.inY) + " k" +
                             std::to_string(s.window) + " s" +
                             std::to_string(s.stride) + " p" +
                             std::to_string(s.pad) + " c" +
                             std::to_string(channels) +
                             (op == PoolOp::Max ? " max" : " avg"));
                overhanging += (pool.outX() - 1) * s.stride - s.pad +
                                   s.window >
                               s.inX;
                // Half the values negative: all-negative windows show
                // a max that starts from 0 instead of the first tap,
                // and averages truncate toward zero.
                Tensor3D<int64_t> in(s.inX, s.inY, channels);
                for (auto &v : in.flat())
                    v = rng.nextInRange(-(1 << 20), 1 << 20);
                const Tensor3D<int64_t> got = poolForward(pool, in);
                const Tensor3D<int64_t> want = naivePool(pool, in);
                ASSERT_EQ(got.sizeX(), want.sizeX());
                ASSERT_EQ(got.sizeY(), want.sizeY());
                ASSERT_EQ(got.sizeI(), channels);
                EXPECT_TRUE(std::equal(got.flat().begin(),
                                       got.flat().end(),
                                       want.flat().begin()));
            }
    EXPECT_GT(overhanging, 0);
}

TEST(Requantize, HandComputedWindowMapping)
{
    Tensor3D<int64_t> acts(2, 2, 1);
    acts.at(0, 0, 0) = 0;
    acts.at(1, 0, 0) = 3;
    acts.at(0, 1, 0) = 7;
    acts.at(1, 1, 0) = 14;
    // p = 4, anchor = 2: max (14) -> 15, v -> round(v * 15/14) << 2.
    auto codes = requantizeToWindow(acts, 4, 2);
    EXPECT_EQ(codes.at(0, 0, 0), 0);
    EXPECT_EQ(codes.at(1, 0, 0), 3 << 2);  // round(3.21) = 3
    EXPECT_EQ(codes.at(0, 1, 0), 8 << 2);  // round(7.5) = 8
    EXPECT_EQ(codes.at(1, 1, 0), 15 << 2);
}

TEST(Requantize, ZerosStayZeroAndMaxHitsWindowTop)
{
    Tensor3D<int64_t> acts(8, 8, 3);
    util::Xoshiro256 rng(42);
    for (auto &v : acts.flat())
        v = rng.nextBool(0.5) ? 0
                              : static_cast<int64_t>(
                                    rng.nextBounded(1 << 20)) + 1;
    acts.at(3, 3, 1) = 1 << 20; // Ensure a known maximum.
    auto codes = requantizeToWindow(acts, 9, 4);
    uint16_t top = static_cast<uint16_t>(((1u << 9) - 1) << 4);
    uint16_t max_code = 0;
    auto src = acts.flat();
    auto dst = codes.flat();
    for (size_t i = 0; i < src.size(); i++) {
        // Zeros survive exactly. (The converse is not guaranteed:
        // values below half a step flush to zero, as real
        // quantization does.)
        if (src[i] == 0) {
            EXPECT_EQ(dst[i], 0);
        }
        max_code = std::max(max_code, dst[i]);
        // Codes live inside the window: nothing below the anchor.
        EXPECT_EQ(dst[i] & 0xF, 0);
        EXPECT_LE(dst[i], top);
    }
    EXPECT_EQ(max_code, top);
}

TEST(Requantize, AllZeroTensorPropagatesZeros)
{
    Tensor3D<int64_t> acts(3, 3, 2);
    auto codes = requantizeToWindow(acts, 8, 0);
    for (uint16_t c : codes.flat())
        EXPECT_EQ(c, 0);
}

TEST(PropagateChain, FirstLayerSharesTheSyntheticImageStream)
{
    auto net = makeTinyNetwork(LayerSelect::All);
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    NeuronTensor image = synth.synthesizeFixed16(0);
    ASSERT_EQ(chain.inputs[0].size(), image.size());
    auto lhs = chain.inputs[0].flat();
    auto rhs = image.flat();
    for (size_t i = 0; i < rhs.size(); i++)
        ASSERT_EQ(lhs[i], rhs[i]);
}

TEST(PropagateChain, WiresConvReluPoolRequantizeExactly)
{
    // Recompute the chain of the hand-sized pipeline step by step
    // with the (individually hand-verified) building blocks and the
    // scalar per-window oracle; the chain must match exactly.
    Network net = makePipeline();
    ASSERT_TRUE(net.valid());
    ASSERT_TRUE(net.chainConsistent());
    ActivationSynthesizer synth(net, 0xabcd);
    PropagatedChain chain = propagateChain(synth);
    ASSERT_EQ(chain.inputs.size(), 4u);

    // Layer 0 (c1): the image stream.
    NeuronTensor in0 = synth.synthesizeFixed16(0);
    auto filters0 = synthesizeFilters(
        net.layers[0], synth.seed() ^ kPropagationFilterSalt);
    OutputTensor acc0 = oracleConvolution(net.layers[0], in0, filters0);
    for (auto &v : acc0.flat())
        v = std::max<int64_t>(v, 0); // ReLU.

    // Layer 1 (p1): pools the raw activations.
    auto pooled = poolForward(net.layers[1], acc0);
    EXPECT_TRUE(chain.inputs[1].empty()); // Pools carry no stream.

    // Layer 2 (c2): requantized into its 7-bit window, anchor
    // min(4, 16-7) = 4.
    auto in2 = requantizeToWindow(pooled, 7, 4);
    ASSERT_EQ(chain.inputs[2].size(), in2.size());
    {
        auto lhs = chain.inputs[2].flat();
        auto rhs = in2.flat();
        for (size_t i = 0; i < rhs.size(); i++)
            ASSERT_EQ(lhs[i], rhs[i]);
    }

    // Layer 3 (f1): c2's output, flattened channel-major into the
    // 1x1x12 column and requantized into the 6-bit window, anchor 4.
    auto filters2 = synthesizeFilters(
        net.layers[2], synth.seed() ^ kPropagationFilterSalt);
    OutputTensor acc2 = oracleConvolution(net.layers[2], in2, filters2);
    for (auto &v : acc2.flat())
        v = std::max<int64_t>(v, 0);
    Tensor3D<int64_t> flat(1, 1, static_cast<int>(acc2.size()));
    std::copy(acc2.flat().begin(), acc2.flat().end(),
              flat.flat().begin());
    auto in3 = requantizeToWindow(flat, 6, 4);
    ASSERT_EQ(chain.inputs[3].size(), in3.size());
    ASSERT_EQ(chain.inputs[3].sizeI(), 12);
    {
        auto lhs = chain.inputs[3].flat();
        auto rhs = in3.flat();
        for (size_t i = 0; i < rhs.size(); i++)
            ASSERT_EQ(lhs[i], rhs[i]);
    }
}

TEST(PropagateChain, ReluSparsityFlowsDownstream)
{
    // Random signed weights leave roughly half the accumulators
    // negative: downstream propagated streams must carry real zeros
    // (the inter-layer correlation synthetic streams cannot see).
    Network net = makePipeline();
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    const auto &c2_in = chain.inputs[2];
    double zeros = 0.0;
    for (uint16_t v : c2_in.flat())
        zeros += v == 0;
    double fraction = zeros / static_cast<double>(c2_in.size());
    EXPECT_GT(fraction, 0.05);
    EXPECT_LT(fraction, 0.95);
}

TEST(PropagateChain, DeterministicAcrossRebuilds)
{
    Network net = makeTinyNetwork(LayerSelect::All);
    ActivationSynthesizer synth(net, 0x1234);
    PropagatedChain a = propagateChain(synth);
    PropagatedChain b = propagateChain(synth);
    ASSERT_EQ(a.inputs.size(), b.inputs.size());
    for (size_t i = 0; i < a.inputs.size(); i++) {
        ASSERT_EQ(a.inputs[i].size(), b.inputs[i].size());
        auto lhs = a.inputs[i].flat();
        auto rhs = b.inputs[i].flat();
        for (size_t k = 0; k < rhs.size(); k++)
            ASSERT_EQ(lhs[k], rhs[k]);
        EXPECT_EQ(a.inputScale[i], b.inputScale[i]);
    }
}

TEST(PropagateChain, TrimmedViewEqualsRawByConstruction)
{
    // Requantized codes already live inside the profiled window, so
    // Section V-F trimming removes nothing from propagated streams.
    Network net = makeTinyNetwork(LayerSelect::All);
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    for (size_t i = 0; i < net.layers.size(); i++) {
        if (!net.layers[i].priced())
            continue;
        NeuronTensor trimmed =
            trimToPrecision(net.layers[i], chain.inputs[i]);
        auto lhs = trimmed.flat();
        auto rhs = chain.inputs[i].flat();
        for (size_t k = 0; k < rhs.size(); k++)
            ASSERT_EQ(lhs[k], rhs[k]) << net.layers[i].name;
    }
}

TEST(PropagateChain, QuantizedViewPreservesZeroSkipping)
{
    Network net = makeTinyNetwork(LayerSelect::All);
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    // c2's propagated input has ReLU zeros; its quantized view must
    // keep exactly those zeros on code 0 (the zero-point nudge).
    const NeuronTensor &raw = chain.inputs[1];
    fixedpoint::QuantParams params;
    NeuronTensor codes = quantizeStream(raw, &params);
    EXPECT_EQ(params.zeroPoint, 0); // Post-ReLU: min is 0.
    auto src = raw.flat();
    auto dst = codes.flat();
    for (size_t i = 0; i < src.size(); i++) {
        if (src[i] == 0) {
            EXPECT_EQ(dst[i], 0);
        }
    }
    EXPECT_EQ(fixedpoint::dequantize(
                  fixedpoint::quantize(0.0, params), params),
              0.0);
}

TEST(PropagateChain, AlexNetRunsEndToEndThroughRealPools)
{
    // Acceptance: conv1 .. fc8 propagate through pool1/pool2/pool5.
    // Shapes must bridge exactly; every priced layer gets a stream.
    auto net = makeAlexNet(LayerSelect::All);
    ActivationSynthesizer synth(net, 0x5eed);
    PropagatedChain chain = propagateChain(synth);
    ASSERT_EQ(chain.inputs.size(), 11u);
    for (size_t i = 0; i < net.layers.size(); i++) {
        const auto &layer = net.layers[i];
        if (!layer.priced()) {
            EXPECT_TRUE(chain.inputs[i].empty()) << layer.name;
            continue;
        }
        ASSERT_FALSE(chain.inputs[i].empty()) << layer.name;
        EXPECT_EQ(chain.inputs[i].sizeX(), layer.inputX) << layer.name;
        EXPECT_EQ(chain.inputs[i].sizeY(), layer.inputY) << layer.name;
        EXPECT_EQ(chain.inputs[i].sizeI(), layer.inputChannels)
            << layer.name;
    }
    // fc6 consumes the flattened 6x6x256 pool5 output.
    EXPECT_EQ(chain.inputs[8].sizeI(), 6 * 6 * 256);
    // Downstream layers carry real ReLU sparsity.
    double zeros = 0.0;
    for (uint16_t v : chain.inputs[8].flat())
        zeros += v == 0;
    EXPECT_GT(zeros / 9216.0, 0.05);
}

TEST(PropagateChain, RejectsNonChainingNetworks)
{
    // A filtered selection misses the pools and the fc tail: the
    // forward pass cannot run and must say so loudly.
    auto net = makeAlexNet(LayerSelect::Conv);
    ActivationSynthesizer synth(net, 0x5eed);
    EXPECT_DEATH(propagateChain(synth), "shape-consistent pipeline");
}

TEST(PropagateChain, RejectsPoolFirstPipelines)
{
    // A pipeline must begin at a priced layer consuming the image;
    // a leading pool has no producer tensor to reduce.
    Network net;
    net.name = "PoolFirst";
    net.targets = {0.08, 0.18, 0.31, 0.44, 0.19};
    net.layers = {
        LayerSpec::pool("p0", 8, 8, 4, 2, 2, PoolOp::Max),
        LayerSpec::fullyConnected("f1", 4 * 4 * 4, 3, 8),
    };
    net.layers[1].ordinal = 0;
    ASSERT_TRUE(net.valid()); // Shapes chain; only propagation cares.
    ActivationSynthesizer synth(net, 0x5eed);
    EXPECT_DEATH(propagateChain(synth), "begin at a priced layer");
}

} // namespace
} // namespace dnn
} // namespace pra
