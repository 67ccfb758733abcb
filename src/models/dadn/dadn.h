/**
 * @file
 * DaDianNao (DaDN) baseline model (paper Section IV-B).
 *
 * DaDN is the bit-parallel reference design: each cycle a tile reads
 * one 16-neuron brick and 16 synapse bricks and computes 256 products.
 * Its execution time is value-independent: one cycle per
 * (window, synapse set) pair per filter pass, so
 *   cycles = passes * windows * bricksPerWindow.
 *
 * The functional half models the NFU datapath (per-lane multipliers
 * feeding a 16-input adder tree per filter) and must match the golden
 * reference convolution exactly.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"

namespace pra {
namespace models {

/** Cycle-count and functional model of the DaDN accelerator. */
class DadnModel
{
  public:
    explicit DadnModel(const sim::AccelConfig &config = {});

    /**
     * Cycles for one conv layer. DaDN performance does not depend on
     * neuron values, only geometry.
     */
    double layerCycles(const dnn::LayerSpec &layer) const;

    /** Full per-layer result (cycles, terms, SB reads) for one layer. */
    sim::LayerResult layerResult(const dnn::LayerSpec &layer) const;

    /**
     * Functional NFU step: multiply a neuron brick against one
     * filter's synapse brick and reduce through the adder tree;
     * returns the partial sum contribution.
     */
    static int64_t nfuBrickDot(std::span<const uint16_t> neurons,
                               std::span<const int16_t> synapses);

    /**
     * Functional model of a full window: iterates the layer's synapse
     * sets exactly as the hardware schedule does and accumulates
     * nfuBrickDot() partial sums; equals the reference window dot.
     */
    int64_t computeWindow(const dnn::LayerSpec &layer,
                          const dnn::NeuronTensor &input,
                          const dnn::FilterTensor &filter,
                          int window_x, int window_y) const;

    const sim::AccelConfig &config() const { return config_; }

  private:
    sim::AccelConfig config_;
};

} // namespace models
} // namespace pra

