/**
 * @file
 * Engine-registry adapter for the Stripes baseline (kind "stripes").
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
    bool quant8_ = false; ///< Price the 8-bit code stream.
};

} // namespace models
} // namespace pra

