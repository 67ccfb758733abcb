/**
 * @file
 * Stripes (STR) baseline model (paper Section I and [4]), registry
 * kind "stripes".
 *
 * Stripes processes neurons bit-serially over the layer's profiled
 * precision p while processing 16 windows in parallel, so a synapse
 * set costs p cycles for a whole pallet instead of DaDN's 16 cycles
 * (one per window): ideal speedup 16/p. Stripes is value-independent
 * beyond the per-layer precision.
 *
 * Knobs:
 *   repr=fixed16|quant8
 *                fixed16 (default): value-independent, per-layer
 *                profiled precisions. quant8: the paper's Figure 12
 *                configuration — Stripes runs the 8-bit code stream
 *                at the per-layer precision its largest code actually
 *                needs, so the engine consumes the Quant8 input
 *                stream (synthetic or propagated) and derives the
 *                precision from it.
 *
 * The serial-parallel multiplier's functional model (paper Figure 4b)
 * is a test oracle (tests/models/datapath_oracle.h).
 */

#pragma once

#include "dnn/layer_spec.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Cycle-count model of the Stripes accelerator. */
class StripesEngine : public sim::Engine
{
  public:
    explicit StripesEngine(const sim::EngineKnobs &knobs);

    std::string name() const override;
    sim::InputStream inputStream() const override;

    /**
     * The layer at its profiled precision, or under repr=quant8 at
     * the precision its largest activation code needs.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

    /** Cycles for one layer on @p accel at serial precision @p precision. */
    static double layerCycles(const dnn::LayerSpec &layer,
                              const sim::AccelConfig &accel, int precision);

    /**
     * Full per-layer result (cycles, terms, SB reads) for one layer
     * on @p accel at serial precision @p precision.
     */
    static sim::LayerResult layerResult(const dnn::LayerSpec &layer,
                                        const sim::AccelConfig &accel,
                                        int precision);

  private:
    bool quant8_ = false; ///< Price the 8-bit code stream.
};

} // namespace models
} // namespace pra
