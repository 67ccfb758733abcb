#include "models/stripes/stripes.h"

#include <algorithm>
#include <string>

#include "fixedpoint/fixed_point.h"
#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

StripesEngine::StripesEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("stripes", knobs, {"repr"});
    std::string repr = sim::knobString(knobs, "repr", "fixed16");
    if (repr == "quant8")
        quant8_ = true;
    else if (repr != "fixed16")
        util::fatal("stripes: repr must be fixed16 or quant8");
}

std::string
StripesEngine::name() const
{
    return quant8_ ? "Stripes-q8" : "Stripes";
}

sim::InputStream
StripesEngine::inputStream() const
{
    // Only the quantized variant is value-dependent: it reads the
    // code stream to find the precision each layer actually needs.
    return quant8_ ? sim::InputStream::Quant8 : sim::InputStream::None;
}

sim::LayerResult
StripesEngine::simulateLayer(const dnn::LayerSpec &layer,
                             const sim::LayerWorkload &workload,
                             const sim::AccelConfig &accel,
                             const sim::SampleSpec &sample,
                             const util::InnerExecutor &exec) const
{
    (void)exec;
    (void)sample; // Stripes cycle counts are exact; nothing to sample.
    int precision = layer.profiledPrecision;
    if (quant8_) {
        // The bits needed by the layer's largest activation code —
        // the quantized analogue of profiled precision (Figure 12).
        uint16_t max_code = 0;
        for (uint16_t code : workload.tensor().flat())
            max_code = std::max(max_code, code);
        precision = std::max(1, fixedpoint::significantBits(max_code));
    }
    return layerResult(layer, accel, precision);
}

double
StripesEngine::layerCycles(const dnn::LayerSpec &layer,
                           const sim::AccelConfig &accel, int precision)
{
    PRA_CHECK(precision >= 1 && precision <= 16,
              "StripesEngine: precision out of range");
    sim::LayerTiling tiling(layer, accel);
    // Each synapse set costs `precision` serial cycles for the whole
    // pallet of 16 windows.
    return static_cast<double>(tiling.passes()) *
           static_cast<double>(tiling.numPallets()) *
           static_cast<double>(tiling.numSynapseSets()) *
           static_cast<double>(precision);
}

sim::LayerResult
StripesEngine::layerResult(const dnn::LayerSpec &layer,
                           const sim::AccelConfig &accel, int precision)
{
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.cycles = layerCycles(layer, accel, precision);
    lr.effectualTerms = static_cast<double>(layer.products()) *
                        precision;
    lr.sbReadSteps = static_cast<double>(layer.windows()) *
                     sim::LayerTiling(layer, accel)
                         .numSynapseSets() /
                     accel.windowsPerPallet;
    return lr;
}

} // namespace models
} // namespace pra
