#include "dnn/layer_spec.h"

#include "dnn/tensor.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

bool
layerSelected(LayerKind kind, LayerSelect select)
{
    switch (select) {
      case LayerSelect::Conv: return kind == LayerKind::Conv;
      case LayerSelect::Fc: return kind == LayerKind::FullyConnected;
      case LayerSelect::All: return true;
    }
    util::fatal("layerSelected: bad select");
}

LayerSpec
LayerSpec::fullyConnected(std::string name, int inputs, int outputs,
                          int precision, int weight_precision)
{
    LayerSpec spec;
    spec.name = std::move(name);
    spec.kind = LayerKind::FullyConnected;
    spec.inputX = 1;
    spec.inputY = 1;
    spec.inputChannels = inputs;
    spec.filterX = 1;
    spec.filterY = 1;
    spec.numFilters = outputs;
    spec.stride = 1;
    spec.pad = 0;
    spec.profiledPrecision = precision;
    spec.profiledWeightPrecision = weight_precision;
    return spec;
}

LayerSpec
LayerSpec::pool(std::string name, int in_x, int in_y, int channels,
                int window, int stride, PoolOp op, int pad,
                bool ceil_mode)
{
    LayerSpec spec;
    spec.name = std::move(name);
    spec.kind = LayerKind::Pool;
    spec.inputX = in_x;
    spec.inputY = in_y;
    spec.inputChannels = channels;
    spec.filterX = window;
    spec.filterY = window;
    spec.numFilters = channels; // Depth-preserving.
    spec.stride = stride;
    spec.pad = pad;
    spec.poolOp = op;
    spec.poolCeil = ceil_mode;
    spec.profiledPrecision = 16; // Unused: pools are never priced.
    return spec;
}

namespace {

/** Shared output-extent rule for one axis; see LayerSpec::outX(). */
int
outExtent(int input, int pad, int filter, int stride, bool ceil_mode)
{
    int span = input + 2 * pad - filter;
    if (ceil_mode) {
        int out = (span + stride - 1) / stride + 1;
        // Caffe's clamp: the last window must start inside the input
        // (plus left padding) or it would cover no elements at all.
        if ((out - 1) * stride >= input + pad)
            out--;
        return out;
    }
    return span / stride + 1;
}

} // namespace

int
LayerSpec::outX() const
{
    return outExtent(inputX, pad, filterX, stride,
                     kind == LayerKind::Pool && poolCeil);
}

int
LayerSpec::outY() const
{
    return outExtent(inputY, pad, filterY, stride,
                     kind == LayerKind::Pool && poolCeil);
}

int64_t
LayerSpec::windows() const
{
    return static_cast<int64_t>(outX()) * outY();
}

int64_t
LayerSpec::synapsesPerFilter() const
{
    return static_cast<int64_t>(filterX) * filterY * inputChannels;
}

int64_t
LayerSpec::synapses() const
{
    return synapsesPerFilter() * numFilters;
}

int64_t
LayerSpec::products() const
{
    return windows() * numFilters * synapsesPerFilter();
}

int64_t
LayerSpec::bricksPerWindow() const
{
    int64_t channel_bricks = (inputChannels + kBrickSize - 1) / kBrickSize;
    return static_cast<int64_t>(filterX) * filterY * channel_bricks;
}

int64_t
LayerSpec::inputNeurons() const
{
    return static_cast<int64_t>(inputX) * inputY * inputChannels;
}

int64_t
LayerSpec::outputNeurons() const
{
    return windows() * numFilters;
}

fixedpoint::PrecisionWindow
LayerSpec::precisionWindow(int anchor_lsb) const
{
    fixedpoint::PrecisionWindow window;
    window.lsb = anchor_lsb;
    window.msb = std::min(15, anchor_lsb + profiledPrecision - 1);
    return window;
}

bool
LayerSpec::valid() const
{
    if (inputX <= 0 || inputY <= 0 || inputChannels <= 0)
        return false;
    if (filterX <= 0 || filterY <= 0 || numFilters <= 0)
        return false;
    if (stride <= 0 || pad < 0)
        return false;
    // The filter must fit the padded input, checked per axis
    // symmetrically. Given a fit, outX()/outY() floor semantics
    // guarantee at least one window per axis; a stride that does not
    // tile the padded input exactly is legal (the trailing positions
    // are dropped — or, for ceil-mode pools, clamped — see outX()).
    if (filterX > inputX + 2 * pad || filterY > inputY + 2 * pad)
        return false;
    if (profiledPrecision < 1 || profiledPrecision > 16)
        return false;
    if (profiledWeightPrecision < 1 || profiledWeightPrecision > 16)
        return false;
    for (int producer : producers)
        if (producer < 0)
            return false;
    if (kind == LayerKind::FullyConnected) {
        // Only the canonical lowered form (see fullyConnected()) is
        // valid: one window over a 1x1xI column.
        if (inputX != 1 || inputY != 1 || filterX != 1 || filterY != 1)
            return false;
        if (stride != 1 || pad != 0)
            return false;
    }
    if (kind == LayerKind::Pool) {
        // Pooling preserves depth; padding at least the window wide
        // would let a floor-mode window land entirely in padding
        // (Caffe enforces pad < kernel the same way).
        if (numFilters != inputChannels)
            return false;
        if (pad >= filterX || pad >= filterY)
            return false;
    }
    return true;
}

} // namespace dnn
} // namespace pra
