#include "models/dadn/dadn_engine.h"

namespace pra {
namespace models {

DadnEngine::DadnEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("dadn", knobs, {});
}

sim::LayerResult
DadnEngine::simulateLayer(const dnn::LayerSpec &layer,
                          const sim::LayerWorkload &workload,
                          const sim::AccelConfig &accel,
                          const sim::SampleSpec &sample,
                          const util::InnerExecutor &exec) const
{
    (void)workload;
    (void)exec;
    (void)sample; // DaDN cycle counts are exact; nothing to sample.
    return DadnModel(accel).layerResult(layer);
}

} // namespace models
} // namespace pra
