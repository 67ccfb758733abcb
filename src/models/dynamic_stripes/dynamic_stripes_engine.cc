#include "models/dynamic_stripes/dynamic_stripes_engine.h"

#include "util/logging.h"

namespace pra {
namespace models {

DynamicStripesEngine::DynamicStripesEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs(
        "dynamic_stripes", knobs,
        {"granularity", "column-regs", "leading-bit", "diffy"});
    std::string granularity =
        sim::knobString(knobs, "granularity", "16");
    if (granularity == "layer") {
        config_.layerWide = true;
    } else {
        // Divisibility against windowsPerPallet is a property of the
        // machine (checkMachine); positivity is a property of the
        // flag and fails here.
        config_.groupColumns =
            static_cast<int>(sim::knobInt(knobs, "granularity", 16));
        if (config_.groupColumns < 1)
            util::fatal("dynamic_stripes: granularity must be a "
                        "positive column count or \"layer\"");
    }
    config_.columnRegisters =
        static_cast<int>(sim::knobInt(knobs, "column-regs", 0));
    if (config_.columnRegisters < 0)
        util::fatal("dynamic_stripes: column-regs must be >= 0");
    config_.leadingBit = sim::knobBool(knobs, "leading-bit", false);
    config_.diffy = sim::knobBool(knobs, "diffy", false);
    if (config_.layerWide && config_.diffy)
        util::fatal("dynamic_stripes: diffy needs runtime detection; "
                    "it cannot combine with granularity=layer");
    if (config_.layerWide && config_.columnRegisters > 0)
        util::fatal("dynamic_stripes: column-regs buffer runtime "
                    "groups; they cannot combine with "
                    "granularity=layer");
}

std::string
DynamicStripesEngine::name() const
{
    std::string n = config_.layerWide
                        ? "DS-layer"
                        : "DS-g" + std::to_string(config_.groupColumns);
    if (config_.columnRegisters > 0)
        n += "-r" + std::to_string(config_.columnRegisters);
    if (config_.leadingBit)
        n += "-lb";
    if (config_.diffy)
        n += "-diffy";
    return n;
}

sim::InputStream
DynamicStripesEngine::inputStream() const
{
    // The layer-wide configuration is static (profiled precisions);
    // every runtime configuration reads the trimmed value stream its
    // detectors would see.
    return config_.layerWide ? sim::InputStream::None
                             : sim::InputStream::Fixed16Trimmed;
}

sim::LayerResult
DynamicStripesEngine::simulateLayer(const dnn::LayerSpec &layer,
                                    const sim::LayerWorkload &workload,
                                    const sim::AccelConfig &accel,
                                    const sim::SampleSpec &sample,
                                    const util::InnerExecutor &exec) const
{
    sim::LayerResult result = simulateLayerDynamicStripes(
        layer, workload, accel, config_, sample, exec);
    result.engineName = name();
    return result;
}

} // namespace models
} // namespace pra
