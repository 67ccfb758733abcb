/**
 * @file
 * Engine-registry adapter for the Stripes baseline (kind "stripes").
 *
 * Knobs:
 *   precision=N  fixed serial precision for every layer (1..16);
 *                0 (default) uses each layer's profiled precision.
 *   repr=fixed16|quant8
 *                fixed16 (default): value-independent, per-layer
 *                profiled (or overridden) precisions. quant8: the
 *                paper's Figure 12 configuration — Stripes runs the
 *                8-bit code stream at the per-layer precision its
 *                largest code actually needs, so the engine consumes
 *                the Quant8 input stream (synthetic or propagated)
 *                and derives the precision from it. Incompatible
 *                with a precision override.
 */

#pragma once

#include "models/stripes/stripes.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** The Stripes baseline behind the uniform Engine interface. */
class StripesEngine : public sim::Engine
{
  public:
    explicit StripesEngine(const sim::EngineKnobs &knobs);

    std::string name() const override;
    sim::InputStream inputStream() const override;

    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

  private:
    int precisionOverride_ = 0; ///< 0 = per-layer profiled precision.
    bool quant8_ = false;       ///< Price the 8-bit code stream.
};

} // namespace models
} // namespace pra

