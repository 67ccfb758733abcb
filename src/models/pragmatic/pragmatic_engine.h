/**
 * @file
 * Engine-registry adapters for Pragmatic (kinds "pragmatic" and
 * "pragmatic-col").
 *
 * "pragmatic" is the pallet-synchronized design of Sections V-A4/V-B;
 * "pragmatic-col" the per-column design of Section V-E. Knobs:
 *   bits=L      first-stage shifter width, 0..4      (default 2)
 *   trim=0|1    Section V-F software trimming        (default 1)
 *   repr=fixed16|quant8  neuron representation       (default fixed16)
 *   nmstalls=0|1  model dispatcher/NM fetch overlap  (default 1)
 *   ssr=N       ("pragmatic-col" only) synapse set registers;
 *               0 models the infinite-register ideal (default 1)
 */

#pragma once

#include <string>

#include "models/pragmatic/pragmatic_config.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Pragmatic (either sync scheme) behind the Engine interface. */
class PragmaticEngine : public sim::Engine
{
  public:
    /** @p sync selects which registry kind the knobs configure. */
    PragmaticEngine(SyncScheme sync, const sim::EngineKnobs &knobs);

    std::string name() const override { return config_.label(); }
    sim::InputStream inputStream() const override;

    /**
     * {L} at the intermediate widths L = 1..3; L = 0 and 4 read the
     * brick planes (see brick_cost.h).
     */
    ScheduleWidths cycleWidths() const override;

    /**
     * Prices the layer through simulateLayerPalletSync or
     * simulateLayerColumnSync, off the workload's shared brick
     * planes, and (for pallet sync, whose pallets are independent)
     * splits it across @p exec.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

    const PragmaticConfig &config() const { return config_; }

  private:
    PragmaticConfig config_;
};

} // namespace models
} // namespace pra

