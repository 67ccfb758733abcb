#include "models/stripes/stripes.h"

#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

StripesModel::StripesModel(const sim::AccelConfig &config)
    : config_(config)
{
    PRA_CHECK(config_.valid(), "StripesModel: invalid config");
}

double
StripesModel::layerCycles(const dnn::LayerSpec &layer,
                          int precision) const
{
    PRA_CHECK(precision >= 1 && precision <= 16,
                         "StripesModel: precision out of range");
    sim::LayerTiling tiling(layer, config_);
    // Each synapse set costs `precision` serial cycles for the whole
    // pallet of 16 windows.
    return static_cast<double>(tiling.passes()) *
           static_cast<double>(tiling.numPallets()) *
           static_cast<double>(tiling.numSynapseSets()) *
           static_cast<double>(precision);
}

sim::LayerResult
StripesModel::layerResult(const dnn::LayerSpec &layer,
                          int precision) const
{
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.engineName = "Stripes";
    lr.cycles = layerCycles(layer, precision);
    lr.effectualTerms = static_cast<double>(layer.products()) *
                        precision;
    lr.sbReadSteps = static_cast<double>(layer.windows()) *
                     sim::LayerTiling(layer, config_)
                         .numSynapseSets() /
                     config_.windowsPerPallet;
    return lr;
}

int64_t
StripesModel::serialMultiply(int16_t synapse, uint16_t neuron,
                             int precision, int window_lsb)
{
    PRA_CHECK(precision >= 1 && precision <= 16,
                         "serialMultiply: precision out of range");
    PRA_CHECK(window_lsb >= 0 && window_lsb < 16,
                         "serialMultiply: bad window lsb");
    int64_t acc = 0;
    // One neuron bit per cycle, LSB of the window first; the AND
    // gates either pass the synapse into the adder or inject zero,
    // and the accumulator applies the growing shift.
    for (int cycle = 0; cycle < precision; cycle++) {
        int bit_pos = window_lsb + cycle;
        if (bit_pos > 15)
            break;
        bool bit = (neuron >> bit_pos) & 1;
        int64_t term = bit ? static_cast<int64_t>(synapse) : 0;
        acc += term << bit_pos;
    }
    return acc;
}

} // namespace models
} // namespace pra
