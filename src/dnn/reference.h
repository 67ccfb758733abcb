/**
 * @file
 * Reference (golden) convolution used to validate the functional
 * models of every accelerator: DaDN's bit-parallel NFU, Stripes'
 * serial-parallel units and Pragmatic's PIPs must all produce exactly
 * these output sums.
 */

#pragma once

#include <algorithm>
#include <cstdint>
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
 * The blocked, zero-skipping convolution kernel behind
 * referenceConvolution() and the propagated forward pass.
 *
 * Construction indexes the input's non-zero activations pixel by
 * pixel, once. run() then streams the layer's filters through in
 * blocks of kFilterBlock, packed filter-innermost (weight s of block
 * lane f at s * kFilterBlock + f, s the FilterTensor flat index) and
 * shared by every window. Each non-zero activation costs one block of
 * MACs, as a few SIMD multiply-adds; a zero costs nothing. Only one
 * block of filters is ever held.
 *
 * Exactness: within a chunk of K activations the products accumulate
 * in int32, then flush into int64. K = max(1, INT32_MAX /
 * (max|w| * max a)), with max|w| over the block and max a over the
 * input, so no int32 partial sum can overflow (one int16 x uint16
 * product always fits). Integer sums are exact in any order, so every
 * output equals referenceWindowDot() bit for bit.
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
     * order within a filter.
     */
    template <typename NextWeight>
    OutputTensor
    run(NextWeight &&next_weight) const
    {
        OutputTensor output(outX_, outY_, numFilters_);
        const auto synapses = static_cast<size_t>(synapses_);
        std::vector<int32_t> packed(synapses * kFilterBlock);
        for (int first = 0; first < numFilters_; first += kFilterBlock) {
            const int count = std::min(kFilterBlock, numFilters_ - first);
            if (count < kFilterBlock)
                std::fill(packed.begin(), packed.end(), 0);
            for (int f = 0; f < count; f++)
                for (size_t s = 0; s < synapses; s++)
                    packed[s * kFilterBlock + f] = int16_t{next_weight()};
            convolveBlock(packed, first, count, output);
        }
        return output;
    }

  private:
    int inputX_, inputY_, channels_;
    int filterX_, filterY_, stride_, pad_;
    int outX_, outY_, numFilters_;
    int64_t synapses_;
    /** Largest input activation: the K bound's max a. */
    int32_t maxActivation_ = 0;
    /** Non-zero entries of pixel p: [pixelStart_[p], pixelStart_[p+1]). */
    std::vector<uint32_t> pixelStart_;
    /** Per entry: channel * kFilterBlock, its packed-weight offset. */
    std::vector<uint32_t> laneOffset_;
    /** Per entry: the activation value. */
    std::vector<uint16_t> value_;

    /**
     * Write output channels [first, first + count) of @p output: one
     * packed block (lanes past @p count hold zeros) against every
     * window.
     */
    void convolveBlock(const std::vector<int32_t> &packed, int first,
                       int count, OutputTensor &output) const;
};

/**
 * Compute the layer's output with exact 64-bit accumulation:
 * o(k,l,f) = sum over (x,y,i) of s_f(x,y,i) * n(x*?S offsets), with
 * zero padding (paper Section IV-A). No activation function is
 * applied: the accelerators compare pre-activation partial sums.
 * A thin adapter over BlockedConvolution.
 *
 * @param layer   geometry (input size must match @p input).
 * @param input   the input neuron array.
 * @param filters one FilterTensor per output filter.
 */
OutputTensor referenceConvolution(const LayerSpec &layer,
                                  const NeuronTensor &input,
                                  const std::vector<FilterTensor> &filters);

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

