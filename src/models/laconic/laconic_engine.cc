#include "models/laconic/laconic_engine.h"

namespace pra {
namespace models {

LaconicEngine::LaconicEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("laconic", knobs, {});
}

sim::LayerResult
LaconicEngine::simulateLayer(const dnn::LayerSpec &layer,
                             const sim::LayerWorkload &workload,
                             const sim::AccelConfig &accel,
                             const sim::SampleSpec &sample,
                             const util::InnerExecutor &exec) const
{
    sim::LayerResult result =
        simulateLayerLaconic(layer, workload, accel, sample, exec);
    result.engineName = name();
    return result;
}

} // namespace models
} // namespace pra
