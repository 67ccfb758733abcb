/**
 * @file
 * DaDianNao (DaDN) baseline model (paper Section IV-B), registry kind
 * "dadn" (no knobs).
 *
 * DaDN is the bit-parallel reference design: each cycle a tile reads
 * one 16-neuron brick and 16 synapse bricks and computes 256 products.
 * Its execution time is value-independent: one cycle per
 * (window, synapse set) pair per filter pass, so
 *   cycles = passes * windows * bricksPerWindow,
 * and the engine requests no neuron stream.
 *
 * The functional half models the NFU datapath (per-lane multipliers
 * feeding a 16-input adder tree per filter) and must match the golden
 * reference convolution exactly.
 */

#pragma once

#include <cstdint>
#include <span>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Cycle-count and functional model of the DaDN accelerator. */
class DadnEngine : public sim::Engine
{
  public:
    explicit DadnEngine(const sim::EngineKnobs &knobs);

    std::string name() const override { return "DaDN"; }

    /** Cycles, 16 terms per product and SB reads of one layer. */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

    /**
     * Cycles for one conv layer on @p accel. DaDN performance does
     * not depend on neuron values, only geometry.
     */
    static double layerCycles(const dnn::LayerSpec &layer,
                              const sim::AccelConfig &accel);

    /**
     * Functional NFU step: multiply a neuron brick against one
     * filter's synapse brick and reduce through the adder tree;
     * returns the partial sum contribution.
     */
    static int64_t nfuBrickDot(std::span<const uint16_t> neurons,
                               std::span<const int16_t> synapses);

    /**
     * Functional model of a full window: iterates the layer's synapse
     * sets exactly as the hardware schedule on @p accel does and
     * accumulates nfuBrickDot() partial sums; equals the reference
     * window dot.
     */
    static int64_t computeWindow(const dnn::LayerSpec &layer,
                                 const sim::AccelConfig &accel,
                                 const dnn::NeuronTensor &input,
                                 const dnn::FilterTensor &filter,
                                 int window_x, int window_y);
};

} // namespace models
} // namespace pra
