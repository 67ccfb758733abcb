#include "models/pragmatic/pragmatic_engine.h"

#include "models/pragmatic/column_sync.h"
#include "models/pragmatic/tile.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

std::string
kindOf(SyncScheme sync)
{
    return sync == SyncScheme::PerColumn ? "pragmatic-col"
                                         : "pragmatic";
}

} // namespace

std::string
PragmaticConfig::label() const
{
    // Built with repeated appends: the a + b + c temporary chain
    // trips GCC 12's -Wrestrict false positive (GCC bug 105651).
    std::string name = "PRA-";
    name += std::to_string(firstStageBits);
    name += 'b';
    if (sync == SyncScheme::PerColumn) {
        if (ssrCount <= 0) {
            name += "-idealR";
        } else {
            name += '-';
            name += std::to_string(ssrCount);
            name += 'R';
        }
    }
    if (representation == Representation::Quant8)
        name += "-q8";
    if (!softwareTrim && representation == Representation::Fixed16)
        name += "-notrim";
    return name;
}

PragmaticEngine::PragmaticEngine(SyncScheme sync,
                                 const sim::EngineKnobs &knobs)
{
    std::vector<std::string> allowed = {"bits", "trim", "repr",
                                        "nmstalls"};
    if (sync == SyncScheme::PerColumn)
        allowed.push_back("ssr");
    sim::requireKnownKnobs(kindOf(sync), knobs, allowed);

    config_.sync = sync;
    config_.firstStageBits =
        static_cast<int>(sim::knobInt(knobs, "bits", 2));
    if (config_.firstStageBits < 0 || config_.firstStageBits > 4)
        util::fatal("pragmatic: bits must be in 0..4");
    config_.softwareTrim = sim::knobBool(knobs, "trim", true);
    config_.modelNmStalls = sim::knobBool(knobs, "nmstalls", true);
    std::string repr = sim::knobString(knobs, "repr", "fixed16");
    if (repr == "fixed16")
        config_.representation = Representation::Fixed16;
    else if (repr == "quant8")
        config_.representation = Representation::Quant8;
    else
        util::fatal("pragmatic: repr must be fixed16 or quant8");
    if (sync == SyncScheme::PerColumn) {
        config_.ssrCount =
            static_cast<int>(sim::knobInt(knobs, "ssr", 1));
        if (config_.ssrCount < 0)
            util::fatal("pragmatic-col: ssr must be >= 0");
    }
}

sim::InputStream
PragmaticEngine::inputStream() const
{
    if (config_.representation == Representation::Quant8)
        return sim::InputStream::Quant8;
    return config_.softwareTrim ? sim::InputStream::Fixed16Trimmed
                                : sim::InputStream::Fixed16Raw;
}

ScheduleWidths
PragmaticEngine::cycleWidths() const
{
    const int bits = config_.firstStageBits;
    return bits >= 1 && bits < kMaxFirstStageBits ? scheduleWidth(bits)
                                                  : 0;
}

sim::LayerResult
PragmaticEngine::simulateLayer(const dnn::LayerSpec &layer,
                               const sim::LayerWorkload &workload,
                               const sim::AccelConfig &accel,
                               const sim::SampleSpec &sample,
                               const util::InnerExecutor &exec) const
{
    sim::LayerResult result =
        config_.sync == SyncScheme::Pallet
            ? simulateLayerPalletSync(layer, workload, accel, config_,
                                      sample, exec)
            : simulateLayerColumnSync(layer, workload, accel, config_,
                                      sample);
    result.engineName = config_.label();
    return result;
}

} // namespace models
} // namespace pra
