/**
 * @file
 * Functional datapath oracles: the arithmetic each accelerator's
 * units perform, modelled bit for bit. The cycle engines never run
 * these; the tests check that every datapath computes the golden
 * convolution (dnn::referenceWindowDot) exactly.
 *
 * - nfuBrickDot / computeWindow: DaDN's NFU, per-lane multipliers
 *   feeding a 16-input adder tree per filter.
 * - serialMultiply: Stripes' serial-parallel multiplier, one neuron
 *   bit ANDed with the full synapse per cycle and accumulated with a
 *   growing shift (paper Figure 4b).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "sim/accel_config.h"
#include "sim/tiling.h"
#include "util/check.h"

namespace pra {
namespace models {

/**
 * One NFU step: multiply a neuron brick against one filter's synapse
 * brick and reduce through the adder tree; returns the partial sum.
 */
inline int64_t
nfuBrickDot(std::span<const uint16_t> neurons,
            std::span<const int16_t> synapses)
{
    PRA_CHECK(neurons.size() == synapses.size(),
              "nfuBrickDot: lane count mismatch");
    PRA_CHECK(neurons.size() <= dnn::kBrickSize,
              "nfuBrickDot: too many lanes");
    // Lane multipliers.
    int64_t products[dnn::kBrickSize] = {};
    for (size_t lane = 0; lane < neurons.size(); lane++) {
        products[lane] = static_cast<int64_t>(synapses[lane]) *
                         static_cast<int64_t>(neurons[lane]);
    }
    // Adder tree: pairwise reduction as in hardware.
    size_t width = dnn::kBrickSize;
    while (width > 1) {
        for (size_t i = 0; i < width / 2; i++)
            products[i] = products[2 * i] + products[2 * i + 1];
        width /= 2;
    }
    return products[0];
}

/**
 * One DaDN output window: the layer's synapse sets in the hardware
 * schedule on @p accel, each brick through nfuBrickDot().
 */
inline int64_t
computeWindow(const dnn::LayerSpec &layer, const sim::AccelConfig &accel,
              const dnn::NeuronTensor &input,
              const dnn::FilterTensor &filter, int window_x, int window_y)
{
    sim::LayerTiling tiling(layer, accel);
    sim::WindowCoord w{window_x, window_y};
    int64_t acc = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        sim::SynapseSetCoord coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, w, coord);
        int16_t synapses[dnn::kBrickSize] = {};
        int lanes = std::min(accel.neuronLanes,
                             layer.inputChannels - coord.brickI);
        for (int lane = 0; lane < lanes; lane++)
            synapses[lane] = filter.at(coord.fx, coord.fy,
                                       coord.brickI + lane);
        acc += nfuBrickDot(std::span<const uint16_t>(neurons),
                           std::span<const int16_t>(synapses,
                                                    dnn::kBrickSize));
    }
    return acc;
}

/**
 * Stripes' serial-parallel multiply: the @p precision bits of
 * @p neuron's window starting at @p window_lsb, one bit per cycle,
 * against the full synapse. Equals synapse * neuron when the neuron
 * fits its window.
 */
inline int64_t
serialMultiply(int16_t synapse, uint16_t neuron, int precision,
               int window_lsb = 0)
{
    PRA_CHECK(precision >= 1 && precision <= 16,
              "serialMultiply: precision out of range");
    PRA_CHECK(window_lsb >= 0 && window_lsb < 16,
              "serialMultiply: bad window lsb");
    int64_t acc = 0;
    // One neuron bit per cycle, LSB of the window first; the AND
    // gates either pass the synapse into the adder or inject zero,
    // and the accumulator applies the growing shift.
    for (int cycle = 0; cycle < precision; cycle++) {
        int bit_pos = window_lsb + cycle;
        if (bit_pos > 15)
            break;
        bool bit = (neuron >> bit_pos) & 1;
        int64_t term = bit ? static_cast<int64_t>(synapse) : 0;
        acc += term << bit_pos;
    }
    return acc;
}

} // namespace models
} // namespace pra
