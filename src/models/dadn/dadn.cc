#include "models/dadn/dadn.h"

#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

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

int64_t
DadnEngine::nfuBrickDot(std::span<const uint16_t> neurons,
                        std::span<const int16_t> synapses)
{
    PRA_CHECK(neurons.size() == synapses.size(),
                         "nfuBrickDot: lane count mismatch");
    // Lane multipliers.
    int64_t products[dnn::kBrickSize] = {};
    PRA_CHECK(neurons.size() <= dnn::kBrickSize,
                         "nfuBrickDot: too many lanes");
    for (size_t lane = 0; lane < neurons.size(); lane++) {
        products[lane] = static_cast<int64_t>(synapses[lane]) *
                         static_cast<int64_t>(neurons[lane]);
    }
    // Adder tree: pairwise reduction as in hardware.
    size_t width = dnn::kBrickSize;
    while (width > 1) {
        for (size_t i = 0; i < width / 2; i++)
            products[i] = products[2 * i] + products[2 * i + 1];
        width /= 2;
    }
    return products[0];
}

int64_t
DadnEngine::computeWindow(const dnn::LayerSpec &layer,
                          const sim::AccelConfig &accel,
                          const dnn::NeuronTensor &input,
                          const dnn::FilterTensor &filter,
                          int window_x, int window_y)
{
    sim::LayerTiling tiling(layer, accel);
    sim::WindowCoord w{window_x, window_y};
    int64_t acc = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        sim::SynapseSetCoord coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, w, coord);
        int16_t synapses[dnn::kBrickSize] = {};
        int lanes = std::min(accel.neuronLanes,
                             layer.inputChannels - coord.brickI);
        for (int lane = 0; lane < lanes; lane++)
            synapses[lane] = filter.at(coord.fx, coord.fy,
                                       coord.brickI + lane);
        acc += nfuBrickDot(std::span<const uint16_t>(neurons),
                           std::span<const int16_t>(synapses,
                                                    dnn::kBrickSize));
    }
    return acc;
}

} // namespace models
} // namespace pra
