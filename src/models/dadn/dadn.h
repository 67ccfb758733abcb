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
 * and the engine requests no neuron stream. The NFU's functional
 * model is a test oracle (tests/models/datapath_oracle.h).
 */

#pragma once

#include "dnn/layer_spec.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Cycle-count model of the DaDN accelerator. */
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
};

} // namespace models
} // namespace pra
