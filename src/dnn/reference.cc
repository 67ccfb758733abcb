#include "dnn/reference.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

namespace {

/**
 * Four int32 filter lanes as one SIMD vector (GCC/Clang vector
 * extensions: plain element-wise arithmetic that maps onto the
 * target's vector unit without intrinsics).
 */
constexpr int kLanes = 4;
using Lanes = int32_t __attribute__((vector_size(kLanes * sizeof(int32_t))));
constexpr int kLaneGroups = kFilterBlock / kLanes;
static_assert(kFilterBlock % kLanes == 0);

} // namespace

BlockedConvolution::BlockedConvolution(const LayerSpec &layer,
                                       const NeuronTensor &input)
    : inputX_(layer.inputX), inputY_(layer.inputY),
      channels_(layer.inputChannels), filterX_(layer.filterX),
      filterY_(layer.filterY), stride_(layer.stride), pad_(layer.pad),
      outX_(layer.outX()), outY_(layer.outY()),
      numFilters_(layer.numFilters), synapses_(layer.synapsesPerFilter())
{
    PRA_CHECK(layer.valid(), "referenceConvolution: bad layer");
    PRA_CHECK(input.sizeX() == layer.inputX &&
                  input.sizeY() == layer.inputY &&
                  input.sizeI() == layer.inputChannels,
              "referenceConvolution: input shape mismatch");
    PRA_CHECK(input.size() <= std::numeric_limits<uint32_t>::max() /
                                  kFilterBlock,
              "referenceConvolution: input too large to index");
    const auto nonzero = static_cast<size_t>(
        std::count_if(input.flat().begin(), input.flat().end(),
                      [](uint16_t v) { return v != 0; }));
    laneOffset_.reserve(nonzero);
    value_.reserve(nonzero);
    const uint16_t *in = input.flat().data();
    const size_t pixels = static_cast<size_t>(inputX_) * inputY_;
    pixelStart_.reserve(pixels + 1);
    pixelStart_.push_back(0);
    for (size_t p = 0; p < pixels; p++) {
        const uint16_t *column = in + p * channels_;
        for (int c = 0; c < channels_; c++) {
            if (column[c] == 0)
                continue;
            laneOffset_.push_back(static_cast<uint32_t>(c) *
                                  kFilterBlock);
            value_.push_back(column[c]);
            maxActivation_ = std::max<int32_t>(maxActivation_, column[c]);
        }
        pixelStart_.push_back(static_cast<uint32_t>(value_.size()));
    }
}

void
BlockedConvolution::convolveBlock(const std::vector<int32_t> &packed,
                                  int first, int count,
                                  OutputTensor &output) const
{
    int32_t max_weight = 0;
    for (int32_t w : packed)
        max_weight = std::max(max_weight, std::abs(w));
    // Activations per int32 chunk: K * max|w| * max a <= INT32_MAX.
    const int64_t bound = int64_t{max_weight} * maxActivation_;
    const int64_t chunk =
        bound == 0 ? std::numeric_limits<int64_t>::max()
                   : std::max<int64_t>(
                         1, std::numeric_limits<int32_t>::max() / bound);

    const size_t tap_stride =
        static_cast<size_t>(channels_) * kFilterBlock;
    int64_t *out = output.flat().data();
    for (int wy = 0; wy < outY_; wy++) {
        for (int wx = 0; wx < outX_; wx++) {
            Lanes part[kLaneGroups] = {};
            int64_t acc[kFilterBlock] = {};
            int64_t room = chunk;
            auto flush = [&] {
                for (int f = 0; f < kFilterBlock; f++)
                    acc[f] += part[f / kLanes][f % kLanes];
                for (Lanes &group : part)
                    group = Lanes{};
            };
            const int base_x = wx * stride_ - pad_;
            const int base_y = wy * stride_ - pad_;
            const int x_lo = std::max(0, -base_x);
            const int x_hi = std::min(filterX_, inputX_ - base_x);
            for (int fy = 0; fy < filterY_; fy++) {
                const int y = base_y + fy;
                if (y < 0 || y >= inputY_)
                    continue;
                for (int fx = x_lo; fx < x_hi; fx++) {
                    const size_t pixel =
                        static_cast<size_t>(y) * inputX_ + base_x + fx;
                    const int32_t *tap =
                        packed.data() +
                        (static_cast<size_t>(fy) * filterX_ + fx) *
                            tap_stride;
                    uint32_t k = pixelStart_[pixel];
                    const uint32_t end = pixelStart_[pixel + 1];
                    while (k < end) {
                        const auto stop = static_cast<uint32_t>(
                            k + std::min<int64_t>(end - k, room));
                        room -= stop - k;
                        for (; k < stop; k++) {
                            const int32_t v = value_[k];
                            const Lanes a = {v, v, v, v};
                            const int32_t *w = tap + laneOffset_[k];
                            for (Lanes &group : part) {
                                Lanes lanes;
                                std::memcpy(&lanes, w, sizeof lanes);
                                group += lanes * a;
                                w += kLanes;
                            }
                        }
                        if (room == 0) {
                            flush();
                            room = chunk;
                        }
                    }
                }
            }
            flush();
            std::copy_n(acc, count,
                        out + (static_cast<size_t>(wy) * outX_ + wx) *
                                  numFilters_ +
                            first);
        }
    }
}

int64_t
referenceWindowDot(const LayerSpec &layer, const NeuronTensor &input,
                   const FilterTensor &filter, int window_x, int window_y)
{
    // Walk the channel-major storage directly: for each in-range
    // filter row segment the input channels are contiguous.
    // Out-of-range coordinates contribute zero (padding), exactly
    // like atPadded().
    const uint16_t *in = input.flat().data();
    const int16_t *fl = filter.flat().data();
    const int channels = layer.inputChannels;
    int64_t acc = 0;
    int base_x = window_x * layer.stride - layer.pad;
    int base_y = window_y * layer.stride - layer.pad;
    for (int fy = 0; fy < layer.filterY; fy++) {
        int y = base_y + fy;
        if (y < 0 || y >= layer.inputY)
            continue;
        int x_lo = std::max(0, -base_x);
        int x_hi = std::min(layer.filterX, layer.inputX - base_x);
        for (int fx = x_lo; fx < x_hi; fx++) {
            int x = base_x + fx;
            const uint16_t *in_col =
                in + (static_cast<size_t>(y) * layer.inputX + x) *
                         channels;
            const int16_t *fl_col =
                fl + (static_cast<size_t>(fy) * layer.filterX + fx) *
                         channels;
            for (int i = 0; i < channels; i++)
                acc += static_cast<int64_t>(fl_col[i]) * in_col[i];
        }
    }
    return acc;
}

OutputTensor
referenceConvolution(const LayerSpec &layer, const NeuronTensor &input,
                     const std::vector<FilterTensor> &filters)
{
    BlockedConvolution kernel(layer, input);
    PRA_CHECK(static_cast<int>(filters.size()) == layer.numFilters,
              "referenceConvolution: filter count mismatch");
    for (const FilterTensor &filter : filters)
        PRA_CHECK(filter.sizeX() == layer.filterX &&
                      filter.sizeY() == layer.filterY &&
                      filter.sizeI() == layer.inputChannels,
                  "referenceConvolution: filter shape mismatch");
    size_t f = 0;
    size_t s = 0;
    return kernel.run([&] {
        const int16_t w = filters[f].flat()[s];
        if (++s == filters[f].size()) {
            s = 0;
            f++;
        }
        return w;
    });
}

} // namespace dnn
} // namespace pra
