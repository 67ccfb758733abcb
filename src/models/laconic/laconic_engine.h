/**
 * @file
 * Engine-registry adapter for Laconic (kind "laconic").
 *
 * No knobs: Laconic's datapath is fully determined by the machine
 * geometry and the two operand streams — the trimmed neuron values
 * and the per-layer profiled-precision weight codes served by the
 * shared weight-side planes.
 */

#pragma once

#include "models/laconic/laconic.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Laconic behind the uniform Engine interface. */
class LaconicEngine : public sim::Engine
{
  public:
    explicit LaconicEngine(const sim::EngineKnobs &knobs);

    std::string name() const override { return "Laconic"; }
    sim::InputStream inputStream() const override
    {
        return sim::InputStream::Fixed16Trimmed;
    }
    bool readsSharedWeights() const override { return true; }

    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;
};

} // namespace models
} // namespace pra
