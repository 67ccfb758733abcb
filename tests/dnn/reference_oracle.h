/**
 * @file
 * referenceConvolution: a whole layer's exact output from one
 * FilterTensor per filter, through dnn::BlockedConvolution. The
 * forward pass draws its weights from the synthesizer instead, so
 * only the tests hold filters as tensors; they check the kernel
 * against dnn::referenceWindowDot and every accelerator datapath
 * against this output.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/reference.h"
#include "dnn/tensor.h"
#include "util/check.h"

namespace pra {
namespace dnn {

/**
 * The layer's output with exact 64-bit accumulation, zero padding
 * (paper Section IV-A) and no activation function: the accelerators
 * compare pre-activation partial sums.
 *
 * @param layer   geometry (input size must match @p input).
 * @param input   the input neuron array.
 * @param filters one FilterTensor per output filter.
 * @param isa     the kernel variant to run.
 */
inline OutputTensor
referenceConvolution(const LayerSpec &layer, const NeuronTensor &input,
                     const std::vector<FilterTensor> &filters,
                     ConvolutionIsa isa = bestConvolutionIsa())
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
    return kernel.run(
        [&] {
            const int16_t w = filters[f].flat()[s];
            if (++s == filters[f].size()) {
                s = 0;
                f++;
            }
            return w;
        },
        isa);
}

} // namespace dnn
} // namespace pra
