/**
 * @file
 * Engine-registry adapter for the DaDianNao baseline (kind "dadn").
 *
 * DaDN is value-independent, so the adapter takes no knobs and
 * requests no neuron stream.
 */

#pragma once

#include "models/dadn/dadn.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** The DaDN baseline behind the uniform Engine interface. */
class DadnEngine : public sim::Engine
{
  public:
    explicit DadnEngine(const sim::EngineKnobs &knobs);

    std::string name() const override { return "DaDN"; }

    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;
};

} // namespace models
} // namespace pra

