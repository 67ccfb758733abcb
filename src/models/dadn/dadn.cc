#include "models/dadn/dadn.h"

#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

DadnModel::DadnModel(const sim::AccelConfig &config)
    : config_(config)
{
    PRA_CHECK(config_.valid(), "DadnModel: invalid config");
}

double
DadnModel::layerCycles(const dnn::LayerSpec &layer) const
{
    sim::LayerTiling tiling(layer, config_);
    // One cycle per (window, synapse set); windows are processed one
    // brick per cycle, bit-parallel.
    return static_cast<double>(tiling.passes()) *
           static_cast<double>(layer.windows()) *
           static_cast<double>(tiling.numSynapseSets());
}

sim::LayerResult
DadnModel::layerResult(const dnn::LayerSpec &layer) const
{
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.engineName = "DaDN";
    lr.cycles = layerCycles(layer);
    // Every term is processed, effectual or not; count the
    // effectual ones as 16 per product upper bound is handled by
    // the analytic module. Here: products * 16 terms processed.
    lr.effectualTerms = static_cast<double>(layer.products()) * 16.0;
    lr.sbReadSteps = lr.cycles;
    return lr;
}

int64_t
DadnModel::nfuBrickDot(std::span<const uint16_t> neurons,
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
DadnModel::computeWindow(const dnn::LayerSpec &layer,
                         const dnn::NeuronTensor &input,
                         const dnn::FilterTensor &filter,
                         int window_x, int window_y) const
{
    sim::LayerTiling tiling(layer, config_);
    sim::WindowCoord w{window_x, window_y};
    int64_t acc = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        sim::SynapseSetCoord coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, w, coord);
        int16_t synapses[dnn::kBrickSize] = {};
        int lanes = std::min(config_.neuronLanes,
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
