/**
 * @file
 * Stripes (STR) baseline model (paper Section I and [4]).
 *
 * Stripes processes neurons bit-serially over the layer's profiled
 * precision p while processing 16 windows in parallel, so a synapse
 * set costs p cycles for a whole pallet instead of DaDN's 16 cycles
 * (one per window): ideal speedup 16/p. Stripes is value-independent
 * beyond the per-layer precision.
 *
 * The functional half models the serial-parallel multiplier: one
 * neuron bit ANDed with the full synapse per cycle, accumulated with a
 * growing shift — exactly the paper's Figure 4b datapath.
 */

#pragma once

#include <cstdint>

#include "dnn/layer_spec.h"
#include "fixedpoint/precision.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"

namespace pra {
namespace models {

/** Cycle-count and functional model of the Stripes accelerator. */
class StripesModel
{
  public:
    explicit StripesModel(const sim::AccelConfig &config = {});

    /** Cycles for one layer at serial precision @p precision. */
    double layerCycles(const dnn::LayerSpec &layer,
                       int precision) const;

    /**
     * Full per-layer result (cycles, terms, SB reads) for one layer
     * at serial precision @p precision.
     */
    sim::LayerResult layerResult(const dnn::LayerSpec &layer,
                                 int precision) const;

    /**
     * Functional serial-parallel multiply: process the @p precision
     * bits of @p neuron's precision window (starting at
     * @p window_lsb), one bit per cycle, against the full synapse.
     * Equals synapse * neuron when the neuron fits its window.
     */
    static int64_t serialMultiply(int16_t synapse, uint16_t neuron,
                                  int precision, int window_lsb = 0);

    const sim::AccelConfig &config() const { return config_; }

  private:
    sim::AccelConfig config_;
};

} // namespace models
} // namespace pra

