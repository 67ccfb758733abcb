#include "dnn/reference.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/check.h"
#include "util/logging.h"

// The AVX2 body is compiled only where GCC/Clang can target it.
#if defined(__x86_64__) && defined(__GNUC__)
#define PRA_AVX2_KERNEL 1
#endif

namespace pra {
namespace dnn {

namespace {

/**
 * Four int32 filter lanes as one SIMD vector (GCC/Clang vector
 * extensions: plain element-wise arithmetic that maps onto the
 * target's vector unit without intrinsics). The AVX2 body's 8-lane
 * type is declared inside its target function only, so no
 * baseline-ISA code handles 32-byte vectors: SSE2 has no 32-bit lane
 * multiply for them, and -Wpsabi warns about them outside AVX code.
 */
using Lanes4 = int32_t __attribute__((vector_size(16)));

} // namespace

ConvolutionIsa
bestConvolutionIsa()
{
#ifdef PRA_AVX2_KERNEL
    static const bool avx2 = __builtin_cpu_supports("avx2");
    return avx2 ? ConvolutionIsa::Avx2 : ConvolutionIsa::Baseline;
#else
    return ConvolutionIsa::Baseline;
#endif
}

const char *
blockedConvolutionIsa()
{
    return bestConvolutionIsa() == ConvolutionIsa::Avx2 ? "avx2"
                                                        : "baseline";
}

BlockedConvolution::BlockedConvolution(const LayerSpec &layer,
                                       const NeuronTensor &input)
    : inputX_(layer.inputX), inputY_(layer.inputY),
      channels_(layer.inputChannels), filterX_(layer.filterX),
      filterY_(layer.filterY), stride_(layer.stride), pad_(layer.pad),
      outX_(layer.outX()), outY_(layer.outY()),
      numFilters_(layer.numFilters), synapses_(layer.synapsesPerFilter()),
      singleWindow_(outX_ == 1 && outY_ == 1)
{
    PRA_CHECK(layer.valid(), "BlockedConvolution: bad layer");
    PRA_CHECK(input.sizeX() == layer.inputX &&
                  input.sizeY() == layer.inputY &&
                  input.sizeI() == layer.inputChannels,
              "BlockedConvolution: input shape mismatch");
    PRA_CHECK(input.size() <= std::numeric_limits<uint32_t>::max() /
                                  kFilterBlock,
              "BlockedConvolution: input too large to index");
    const uint16_t *in = input.flat().data();
    if (singleWindow_) {
        // Window (0, 0): copy each in-range tap's channel column to
        // its FilterTensor offset; padded taps stay zero.
        window_.assign(static_cast<size_t>(synapses_), 0);
        for (int fy = 0; fy < filterY_; fy++) {
            const int y = fy - pad_;
            if (y < 0 || y >= inputY_)
                continue;
            for (int fx = 0; fx < filterX_; fx++) {
                const int x = fx - pad_;
                if (x < 0 || x >= inputX_)
                    continue;
                std::copy_n(
                    in + (static_cast<size_t>(y) * inputX_ + x) * channels_,
                    channels_,
                    window_.data() +
                        (static_cast<size_t>(fy) * filterX_ + fx) *
                            channels_);
            }
        }
        return;
    }
    size_t nonzero = 0;
    uint16_t max_activation = 0;
    for (uint16_t v : input.flat()) {
        nonzero += v != 0;
        max_activation = std::max(max_activation, v);
    }
    maxActivation_ = max_activation;
    // Branch-free fill: every activation is written at the next free
    // entry, and only a non-zero one advances past it. The one spare
    // entry takes a trailing zero's write and is dropped after.
    laneOffset_.resize(nonzero + 1);
    value_.resize(nonzero + 1);
    uint32_t *lane = laneOffset_.data();
    uint16_t *value = value_.data();
    const size_t pixels = static_cast<size_t>(inputX_) * inputY_;
    pixelStart_.resize(pixels + 1);
    uint32_t k = 0;
    for (size_t p = 0; p < pixels; p++) {
        pixelStart_[p] = k;
        const uint16_t *column = in + p * channels_;
        for (int c = 0; c < channels_; c++) {
            lane[k] = static_cast<uint32_t>(c) * kFilterBlock;
            value[k] = column[c];
            k += column[c] != 0;
        }
    }
    pixelStart_[pixels] = k;
    laneOffset_.pop_back();
    value_.pop_back();
}

void
BlockedConvolution::requireIsa(ConvolutionIsa isa)
{
    PRA_CHECK(isa == ConvolutionIsa::Baseline ||
                  bestConvolutionIsa() == ConvolutionIsa::Avx2,
              "BlockedConvolution: this build or CPU cannot run the "
              "avx2 kernel");
}

/**
 * One packed filter block against every window. body<Lanes>() is the
 * loop; it is always inlined into baseline() and avx2(), so each copy
 * compiles for that variant's target.
 */
struct BlockedConvolution::Kernel
{
    const BlockedConvolution &conv;
    /** The block, filter-innermost; lanes past count hold zeros. */
    const int32_t *packed;
    /** Activations per int32 chunk. */
    int64_t chunk;
    /** The block's first output channel and its filter count. */
    int first;
    int count;
    OutputTensor &output;

    template <typename Lanes>
    [[gnu::always_inline]] inline void body() const;
    void baseline() const;
#ifdef PRA_AVX2_KERNEL
    [[gnu::target("avx2")]] void avx2() const;
#endif
};

namespace {

/** Add the int32 partial sums into @p acc and clear them. */
template <typename Lanes, size_t kGroups>
[[gnu::always_inline]] inline void
flush(Lanes (&part)[kGroups], int64_t *acc)
{
    constexpr int kLanes = kFilterBlock / kGroups;
    for (int f = 0; f < kFilterBlock; f++)
        acc[f] += part[f / kLanes][f % kLanes];
    for (Lanes &group : part)
        group = Lanes{};
}

} // namespace

template <typename Lanes>
inline void
BlockedConvolution::Kernel::body() const
{
    constexpr int kLanes = sizeof(Lanes) / sizeof(int32_t);
    static_assert(kFilterBlock % kLanes == 0);
    const size_t tap_stride =
        static_cast<size_t>(conv.channels_) * kFilterBlock;
    int64_t *out = output.flat().data();
    for (int wy = 0; wy < conv.outY_; wy++) {
        for (int wx = 0; wx < conv.outX_; wx++) {
            Lanes part[kFilterBlock / kLanes] = {};
            int64_t acc[kFilterBlock] = {};
            int64_t room = chunk;
            const int base_x = wx * conv.stride_ - conv.pad_;
            const int base_y = wy * conv.stride_ - conv.pad_;
            const int x_lo = std::max(0, -base_x);
            const int x_hi = std::min(conv.filterX_, conv.inputX_ - base_x);
            for (int fy = 0; fy < conv.filterY_; fy++) {
                const int y = base_y + fy;
                if (y < 0 || y >= conv.inputY_)
                    continue;
                for (int fx = x_lo; fx < x_hi; fx++) {
                    const size_t pixel =
                        static_cast<size_t>(y) * conv.inputX_ + base_x + fx;
                    const size_t synapse =
                        static_cast<size_t>(fy) * conv.filterX_ + fx;
                    const int32_t *tap = packed + synapse * tap_stride;
                    uint32_t k = conv.pixelStart_[pixel];
                    const uint32_t end = conv.pixelStart_[pixel + 1];
                    while (k < end) {
                        const auto stop = static_cast<uint32_t>(
                            k + std::min<int64_t>(end - k, room));
                        room -= stop - k;
                        for (; k < stop; k++) {
                            const Lanes a = Lanes{} + int32_t{conv.value_[k]};
                            const int32_t *w = tap + conv.laneOffset_[k];
                            for (Lanes &group : part) {
                                Lanes lanes;
                                std::memcpy(&lanes, w, sizeof lanes);
                                group += lanes * a;
                                w += kLanes;
                            }
                        }
                        if (room == 0) {
                            flush(part, acc);
                            room = chunk;
                        }
                    }
                }
            }
            flush(part, acc);
            const size_t window = static_cast<size_t>(wy) * conv.outX_ + wx;
            std::copy_n(acc, count, out + window * conv.numFilters_ + first);
        }
    }
}

void
BlockedConvolution::Kernel::baseline() const
{
    body<Lanes4>();
}

#ifdef PRA_AVX2_KERNEL
[[gnu::target("avx2")]] void
BlockedConvolution::Kernel::avx2() const
{
    using Lanes8 = int32_t __attribute__((vector_size(32)));
    body<Lanes8>();
}
#endif

void
BlockedConvolution::convolveBlock(const std::vector<int16_t> &rows, int count,
                                  int32_t max_weight,
                                  std::vector<int32_t> &packed, int first,
                                  OutputTensor &output,
                                  ConvolutionIsa isa) const
{
    // Transpose in one pass, kTile weights of every row at a time:
    // the rows are read in order, and the tile's packed groups (512
    // bytes) stay in L1 while their lanes fill.
    constexpr size_t kTile = 8;
    const auto synapses = static_cast<size_t>(synapses_);
    if (count < kFilterBlock)
        std::fill(packed.begin(), packed.end(), 0);
    auto transpose = [&](size_t s, auto tile) {
        for (int f = 0; f < count; f++) {
            const int16_t *row = rows.data() + f * synapses + s;
            int32_t *lane = packed.data() + s * kFilterBlock + f;
            for (size_t j = 0; j < tile; j++)
                lane[j * kFilterBlock] = row[j];
        }
    };
    size_t s = 0;
    for (; s + kTile <= synapses; s += kTile)
        transpose(s, std::integral_constant<size_t, kTile>{});
    for (; s < synapses; s++)
        transpose(s, std::integral_constant<size_t, 1>{});
    // Activations per int32 chunk: K * max|w| * max a <= INT32_MAX.
    const int64_t bound = int64_t{max_weight} * maxActivation_;
    const int64_t chunk =
        bound == 0 ? std::numeric_limits<int64_t>::max()
                   : std::max<int64_t>(
                         1, std::numeric_limits<int32_t>::max() / bound);
    const Kernel kernel{*this, packed.data(), chunk, first, count, output};
#ifdef PRA_AVX2_KERNEL
    if (isa == ConvolutionIsa::Avx2) {
        kernel.avx2();
        return;
    }
#endif
    kernel.baseline();
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

} // namespace dnn
} // namespace pra
