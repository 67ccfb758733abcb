#include "models/stripes/stripes_engine.h"

#include <algorithm>

#include "fixedpoint/fixed_point.h"
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
    sim::LayerResult lr =
        StripesModel(accel).layerResult(layer, precision);
    lr.engineName = name();
    return lr;
}

} // namespace models
} // namespace pra
