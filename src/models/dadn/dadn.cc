#include "models/dadn/dadn.h"

#include "sim/tiling.h"

namespace pra {
namespace models {

DadnEngine::DadnEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("dadn", knobs, {});
}

double
DadnEngine::layerCycles(const dnn::LayerSpec &layer,
                        const sim::AccelConfig &accel)
{
    sim::LayerTiling tiling(layer, accel);
    // One cycle per (window, synapse set); windows are processed one
    // brick per cycle, bit-parallel.
    return static_cast<double>(tiling.passes()) *
           static_cast<double>(layer.windows()) *
           static_cast<double>(tiling.numSynapseSets());
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
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.cycles = layerCycles(layer, accel);
    // Every term is processed, effectual or not; count the
    // effectual ones as 16 per product upper bound is handled by
    // the analytic module. Here: products * 16 terms processed.
    lr.effectualTerms = static_cast<double>(layer.products()) * 16.0;
    lr.sbReadSteps = lr.cycles;
    return lr;
}

} // namespace models
} // namespace pra
