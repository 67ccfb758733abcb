#include "dnn/propagate.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

namespace {

/** ReLU in place: negative accumulators become zero. */
void
relu(Tensor3D<int64_t> &tensor)
{
    for (auto &v : tensor.flat())
        v = std::max<int64_t>(v, 0);
}

/**
 * The effective producer list of layer @p idx (empty producers =
 * previous layer); callers guarantee idx >= 1.
 */
std::vector<int>
producersOf(const Network &net, size_t idx)
{
    if (!net.layers[idx].producers.empty())
        return net.layers[idx].producers;
    return {static_cast<int>(idx) - 1};
}

/**
 * Concatenate producer outputs along the channel dimension (list
 * order), the inception-module join. A single producer is a plain
 * copy-through reference case handled by the caller to avoid the
 * copy.
 */
Tensor3D<int64_t>
concatChannels(const std::vector<const Tensor3D<int64_t> *> &parts)
{
    int size_x = parts.front()->sizeX();
    int size_y = parts.front()->sizeY();
    int channels = 0;
    for (const auto *part : parts) {
        PRA_CHECK(part->sizeX() == size_x &&
                                 part->sizeY() == size_y,
                             "concatChannels: spatial mismatch");
        channels += part->sizeI();
    }
    Tensor3D<int64_t> out(size_x, size_y, channels);
    for (int y = 0; y < size_y; y++)
        for (int x = 0; x < size_x; x++) {
            int base = 0;
            for (const auto *part : parts) {
                for (int i = 0; i < part->sizeI(); i++)
                    out.at(x, y, base + i) = part->at(x, y, i);
                base += part->sizeI();
            }
        }
    return out;
}

/**
 * Reshape int64 activations into an FC layer's 1 x 1 x I input
 * column, flattening in the tensor's canonical channel-major order.
 */
Tensor3D<int64_t>
flattenForFc(const Tensor3D<int64_t> &acts)
{
    Tensor3D<int64_t> flat(1, 1, static_cast<int>(acts.size()));
    std::copy(acts.flat().begin(), acts.flat().end(),
              flat.flat().begin());
    return flat;
}

/** acc[i] = max(acc[i], row[i]) over one channel row. */
void
maxRowInto(int64_t *__restrict acc, const int64_t *__restrict row,
           size_t n)
{
    for (size_t i = 0; i < n; i++)
        acc[i] = std::max(acc[i], row[i]);
}

/** acc[i] += row[i] over one channel row. */
void
addRowInto(int64_t *__restrict acc, const int64_t *__restrict row,
           size_t n)
{
    for (size_t i = 0; i < n; i++)
        acc[i] += row[i];
}

} // namespace

Tensor3D<int64_t>
poolForward(const LayerSpec &layer, const Tensor3D<int64_t> &input)
{
    PRA_CHECK(layer.kind == LayerKind::Pool,
                         "poolForward: not a pool layer");
    PRA_CHECK(input.sizeX() == layer.inputX &&
                             input.sizeY() == layer.inputY &&
                             input.sizeI() == layer.inputChannels,
                         "poolForward: input shape mismatch");
    Tensor3D<int64_t> out(layer.outX(), layer.outY(),
                          layer.inputChannels);
    const bool max_pool = layer.poolOp == PoolOp::Max;
    const size_t channels = static_cast<size_t>(layer.inputChannels);
    const int64_t *in = input.flat().data();
    int64_t *acc = out.flat().data();
    // Channel-major layout: each (x, y) is a contiguous row of
    // `channels` values. Reduce an output pixel's in-bounds taps row
    // by row straight into its (zero-initialized) output row.
    for (int wy = 0; wy < layer.outY(); wy++) {
        const int base_y = wy * layer.stride - layer.pad;
        const int y0 = std::max(base_y, 0);
        const int y1 = std::min(base_y + layer.filterY, layer.inputY);
        for (int wx = 0; wx < layer.outX(); wx++, acc += channels) {
            const int base_x = wx * layer.stride - layer.pad;
            const int x0 = std::max(base_x, 0);
            const int x1 = std::min(base_x + layer.filterX, layer.inputX);
            PRA_CHECK(y0 < y1 && x0 < x1, "poolForward: empty window");
            const int count = (y1 - y0) * (x1 - x0);
            for (int y = y0; y < y1; y++) {
                for (int x = x0; x < x1; x++) {
                    const int64_t *row =
                        in + (static_cast<size_t>(y) * layer.inputX + x) *
                                 channels;
                    if (!max_pool)
                        addRowInto(acc, row, channels);
                    else if (y == y0 && x == x0)
                        std::copy_n(row, channels, acc);
                    else
                        maxRowInto(acc, row, channels);
                }
            }
            if (!max_pool)
                for (size_t i = 0; i < channels; i++)
                    acc[i] /= count;
        }
    }
    return out;
}

NeuronTensor
requantizeToWindow(const Tensor3D<int64_t> &activations,
                   int precision_bits, int anchor_lsb,
                   int64_t *max_out)
{
    PRA_CHECK(precision_bits >= 1 && precision_bits <= 16 &&
                             anchor_lsb >= 0 &&
                             anchor_lsb + precision_bits <= 16,
                         "requantizeToWindow: bad window");
    NeuronTensor out(activations.sizeX(), activations.sizeY(),
                     activations.sizeI());
    int64_t max_value = 0;
    for (int64_t v : activations.flat()) {
        PRA_CHECK(v >= 0, "requantizeToWindow: negative "
                                     "activation (ReLU missing?)");
        max_value = std::max(max_value, v);
    }
    if (max_out)
        *max_out = max_value;
    if (max_value == 0)
        return out; // A dead layer propagates zeros.
    const double top =
        static_cast<double>((1u << precision_bits) - 1);
    const double scale = top / static_cast<double>(max_value);
    auto src = activations.flat();
    auto dst = out.flat();
    for (size_t i = 0; i < src.size(); i++) {
        // Round half away from zero; values are non-negative and the
        // scale maps max_value to exactly `top`, so no clamp needed.
        uint32_t code = static_cast<uint32_t>(
            std::llround(static_cast<double>(src[i]) * scale));
        dst[i] = static_cast<uint16_t>(code << anchor_lsb);
    }
    return out;
}

NeuronTensor
trimToPrecision(const LayerSpec &layer, const NeuronTensor &stream)
{
    uint16_t mask = layer.precisionWindow(synthesisAnchor(layer)).mask();
    NeuronTensor trimmed = stream;
    for (auto &v : trimmed.flat())
        v = static_cast<uint16_t>(v & mask);
    return trimmed;
}

NeuronTensor
quantizeStream(const NeuronTensor &stream,
               fixedpoint::QuantParams *params_out)
{
    // Max straight off the codes: a multi-megapixel stream must not
    // be copied into a transient vector<double> just to pick a
    // range, and the minimum is irrelevant — codes are non-negative,
    // so fromRange() anchors at 0 (zeroPoint 0) regardless.
    uint16_t hi = 0;
    for (uint16_t v : stream.flat())
        hi = std::max(hi, v);
    fixedpoint::QuantParams params = fixedpoint::QuantParams::fromRange(
        0.0, static_cast<double>(hi));
    if (params_out)
        *params_out = params;
    NeuronTensor codes(stream.sizeX(), stream.sizeY(), stream.sizeI());
    auto src = stream.flat();
    auto dst = codes.flat();
    for (size_t i = 0; i < src.size(); i++)
        dst[i] = fixedpoint::quantize(static_cast<double>(src[i]),
                                      params);
    return codes;
}

PropagatedChain
propagateChain(const ActivationSynthesizer &synth, int image)
{
    const Network &net = synth.network();
    PRA_CHECK(image >= 0, "propagateChain: batch image index must be "
                          "non-negative");
    std::string why;
    if (!net.chainConsistent(&why))
        util::fatal("propagateChain: network '" + net.name +
                    "' is not a shape-consistent pipeline (" + why +
                    "); propagated activations need the full layer "
                    "chain including pools (--layers=all)");
    if (!net.layers.front().priced())
        util::fatal("propagateChain: network '" + net.name +
                    "' starts with a pool layer; the pipeline must "
                    "begin at a priced layer consuming the image");

    const size_t count = net.layers.size();
    PropagatedChain chain;
    chain.inputs.resize(count);
    chain.inputScale.assign(count, 0.0);

    // Free each layer's int64 output as soon as its last consumer has
    // run: VGG-scale activations are tens of megabytes apiece.
    std::vector<size_t> last_use(count, 0);
    for (size_t j = 1; j < count; j++)
        for (int p : producersOf(net, j))
            last_use[static_cast<size_t>(p)] = j;
    std::vector<std::optional<Tensor3D<int64_t>>> outputs(count);
    // Consecutive consumers of one multi-producer set (the six
    // layers of an inception module all joining the previous
    // module's four branch outputs) share one materialized concat
    // instead of each rebuilding a multi-megabyte tensor. Only one
    // such set is live at a time, so a single memo slot suffices.
    std::vector<int> concat_key;
    std::optional<Tensor3D<int64_t>> concat_memo;

    for (size_t j = 0; j < count; j++) {
        const LayerSpec &layer = net.layers[j];

        // Gather this layer's int64 input activations (not needed
        // for layer 0, whose input is the image stream).
        const Tensor3D<int64_t> *acts = nullptr;
        if (j > 0) {
            std::vector<int> producers = producersOf(net, j);
            if (producers.size() == 1) {
                acts = &*outputs[static_cast<size_t>(producers[0])];
            } else {
                if (producers != concat_key) {
                    std::vector<const Tensor3D<int64_t> *> parts;
                    parts.reserve(producers.size());
                    for (int p : producers)
                        parts.push_back(
                            &*outputs[static_cast<size_t>(p)]);
                    concat_memo = concatChannels(parts);
                    concat_key = producers;
                }
                acts = &*concat_memo;
            }
        }

        if (layer.kind == LayerKind::Pool) {
            // Pools reduce raw activations; requantization waits for
            // the next priced consumer. Their chain input stays
            // empty (nothing prices a pool).
            outputs[j] = poolForward(layer, *acts);
        } else {
            NeuronTensor input16;
            if (j == 0) {
                // The image stream, shared with synthetic mode (the
                // batch image index selects which image of a batched
                // request this forward pass propagates).
                input16 = synth.synthesizeFixed16(0, image);
                chain.inputScale[j] = 1.0;
            } else {
                // FC flattens the producer output into its column;
                // conv consumes it as-is (no copy).
                std::optional<Tensor3D<int64_t>> flat;
                const Tensor3D<int64_t> *shaped = acts;
                if (layer.kind == LayerKind::FullyConnected) {
                    flat = flattenForFc(*acts);
                    shaped = &*flat;
                }
                int64_t max_value = 0;
                input16 = requantizeToWindow(*shaped,
                                             layer.profiledPrecision,
                                             synthesisAnchor(layer),
                                             &max_value);
                if (max_value > 0)
                    chain.inputScale[j] =
                        static_cast<double>(max_value) /
                        static_cast<double>(
                            (1u << layer.profiledPrecision) - 1);
            }
            // Run the layer on exactly the stream the engines price.
            // The filters stream through the kernel a block at a
            // time, drawn in synthesizeFilters() order: no layer's
            // filters are ever held whole (fc6 alone is 75 MB).
            if (last_use[j] > 0) {
                FilterWeightStream weights(
                    layer, synth.seed() ^ kPropagationFilterSalt);
                Tensor3D<int64_t> out =
                    BlockedConvolution(layer, input16).run(
                        [&weights] { return weights.next(); });
                relu(out);
                outputs[j] = std::move(out);
            }
            chain.inputs[j] = std::move(input16);
        }

        // Drop inputs whose last consumer was this layer.
        for (size_t p = 0; p < j; p++)
            if (last_use[p] == j && outputs[p])
                outputs[p].reset();
    }
    return chain;
}

} // namespace dnn
} // namespace pra
