/**
 * @file
 * The exact convolution: BlockedConvolution, the zero-skipping kernel
 * of the propagated forward pass, and referenceWindowDot(), the
 * scalar per-window sum it is tested against. The functional models
 * of every accelerator (DaDN's NFU, Stripes' serial-parallel units,
 * Pragmatic's PIPs) must produce exactly these output sums; the
 * tests compare them with BlockedConvolution through the FilterTensor
 * adapter in tests/dnn/reference_oracle.h.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"

namespace pra {
namespace dnn {

/** Output partial sums of a conv layer: one int64 per (x, y, filter). */
using OutputTensor = Tensor3D<int64_t>;

/** Filters per block of the blocked convolution kernel. */
inline constexpr int kFilterBlock = 16;

/**
 * The two compiled bodies of BlockedConvolution's kernel. Both give
 * the same output bits; only their speed differs.
 */
enum class ConvolutionIsa
{
    /** 4-lane (16-byte) vectors at the build's own target ISA. */
    Baseline,
    /** 8-lane (32-byte) AVX2 vectors; x86-64 builds on AVX2 CPUs only. */
    Avx2,
};

/**
 * The variant BlockedConvolution::run() uses by default: Avx2 when
 * this is an x86-64 build and the CPU supports AVX2, else Baseline.
 * Decided once per process.
 */
ConvolutionIsa bestConvolutionIsa();

/** "avx2" or "baseline": the name of bestConvolutionIsa(). */
// pra-lint: allow(test-only-api) perfbench prints it (ROADMAP step 7)
const char *blockedConvolutionIsa();

/**
 * The blocked, zero-skipping convolution kernel behind the
 * propagated forward pass.
 *
 * Construction indexes the input's non-zero activations pixel by
 * pixel, once. run() then streams the layer's filters through in
 * blocks of kFilterBlock: it draws a block's filters one after another
 * into int16 rows, then transposes them in one pass into a
 * filter-innermost layout (weight s of block lane f at
 * s * kFilterBlock + f, s the FilterTensor flat index) shared by every
 * window. Each non-zero activation costs one block of MACs, as a few
 * SIMD multiply-adds; a zero costs nothing. Only one block of filters
 * is ever held.
 *
 * Single-window layers (outX * outY == 1: every FC layer) use each
 * weight exactly once, so blocking buys nothing there. Construction
 * instead lays the one window's activations out densely in
 * FilterTensor flat order, zeros at padded taps, and run() adds each
 * weight's product into its filter's int64 sum as the weight is
 * drawn: no rows, no transpose, no chunking.
 *
 * Exactness: within a chunk of K activations the products accumulate
 * in int32, then flush into int64. K = max(1, INT32_MAX /
 * (max|w| * max a)), with max|w| over the block and max a over the
 * input, so no int32 partial sum can overflow (one int16 x uint16
 * product always fits). Integer sums are exact in any order, so every
 * output equals referenceWindowDot() bit for bit, at either
 * ConvolutionIsa and on the single-window path.
 */
class BlockedConvolution
{
  public:
    /** Index @p input (whose shape must match @p layer's input). */
    BlockedConvolution(const LayerSpec &layer, const NeuronTensor &input);

    /**
     * Convolve all layer.numFilters filters, drawing their weights
     * from @p next_weight (a callable returning int16_t) in
     * synthesizeFilters() order: filter-major, FilterTensor flat
     * order within a filter. @p isa picks the kernel body (single-
     * window layers have none to pick); panics when this build or
     * CPU cannot run it.
     */
    template <typename NextWeight>
    OutputTensor run(NextWeight &&next_weight,
                     ConvolutionIsa isa = bestConvolutionIsa()) const
    {
        requireIsa(isa);
        OutputTensor output(outX_, outY_, numFilters_);
        const auto synapses = static_cast<size_t>(synapses_);
        if (singleWindow_) {
            int64_t *out = output.flat().data();
            for (int f = 0; f < numFilters_; f++) {
                int64_t acc = 0;
                for (size_t s = 0; s < synapses; s++)
                    acc += int32_t{next_weight()} * int32_t{window_[s]};
                out[f] = acc;
            }
            return output;
        }
        std::vector<int16_t> rows(synapses * kFilterBlock);
        std::vector<int32_t> packed(synapses * kFilterBlock);
        for (int first = 0; first < numFilters_; first += kFilterBlock) {
            const int count = std::min(kFilterBlock, numFilters_ - first);
            const size_t draws = static_cast<size_t>(count) * synapses;
            int32_t max_weight = 0;
            for (size_t i = 0; i < draws; i++) {
                const int16_t w = next_weight();
                rows[i] = w;
                max_weight = std::max(max_weight, std::abs(int32_t{w}));
            }
            convolveBlock(rows, count, max_weight, packed, first, output, isa);
        }
        return output;
    }

  private:
    /** The kernel bodies (reference.cc), one per ConvolutionIsa. */
    struct Kernel;

    /** Panic unless this build and CPU can run @p isa. */
    static void requireIsa(ConvolutionIsa isa);

    int inputX_, inputY_, channels_;
    int filterX_, filterY_, stride_, pad_;
    int outX_, outY_, numFilters_;
    int64_t synapses_;
    /** outX * outY == 1: run() takes the single-window path. */
    bool singleWindow_;
    /**
     * Single-window layers only: the window's activations in
     * FilterTensor flat order, zero at padded taps.
     */
    std::vector<uint16_t> window_;
    /** Largest input activation: the K bound's max a. */
    int32_t maxActivation_ = 0;
    /** Non-zero entries of pixel p: [pixelStart_[p], pixelStart_[p+1]). */
    std::vector<uint32_t> pixelStart_;
    /** Per entry: channel * kFilterBlock, its packed-weight offset. */
    std::vector<uint32_t> laneOffset_;
    /** Per entry: the activation value. */
    std::vector<uint16_t> value_;

    /**
     * Write output channels [first, first + count) of @p output:
     * transpose the @p count filter rows of @p rows (each synapses_
     * weights long, largest magnitude @p max_weight) into @p packed,
     * lanes past @p count zero, then run that block against every
     * window.
     */
    void convolveBlock(const std::vector<int16_t> &rows, int count,
                       int32_t max_weight, std::vector<int32_t> &packed,
                       int first, OutputTensor &output,
                       ConvolutionIsa isa) const;
};

/**
 * Dot product of one window position against one filter; the quantum
 * of work the inner-product units perform. A plain scalar int64 loop,
 * independent of BlockedConvolution: the per-window oracle the
 * blocked kernel is tested against.
 */
int64_t referenceWindowDot(const LayerSpec &layer,
                           const NeuronTensor &input,
                           const FilterTensor &filter,
                           int window_x, int window_y);

} // namespace dnn
} // namespace pra

