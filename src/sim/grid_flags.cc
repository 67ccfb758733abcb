#include "sim/grid_flags.h"

#include <algorithm>

#include "dnn/model_zoo.h"
#include "sim/memory/memory_config.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

std::vector<dnn::Network>
parseGridFlags(const util::ArgParser &args, GridOptions &options,
               int64_t default_units, int64_t smoke_units)
{
    const bool smoke = args.getBool("smoke");
    options.activations = parseActivationMode(
        args.getString("activations", "synthetic"));
    dnn::LayerSelect select = dnn::LayerSelect::All;
    if (options.activations == ActivationMode::Propagated) {
        // Propagation runs the whole pipeline; a filtered selection
        // cannot chain (conv2 would miss pool1, fc6 the conv trunk).
        if (args.has("layers") && args.getString("layers") != "all")
            util::fatal("--activations=propagated propagates the "
                        "full layer pipeline; --layers must be 'all' "
                        "(or omitted)");
    } else {
        select = dnn::parseLayerSelect(args.getString("layers", "conv"));
    }
    std::vector<dnn::Network> networks = dnn::parseNetworkList(
        args.getString("networks", smoke ? "tiny" : "all"), select);

    options.threads =
        args.getCount("threads", util::ThreadPool::hardwareThreads(), 1,
                      "a positive thread count");
    options.cache = args.getBool("cache", true);
    options.accel.memory =
        parseMemoryPreset(args.getString("memory", "off"));
    options.sample.maxUnits =
        args.sampleUnits(smoke ? smoke_units : default_units);
    const int64_t seed = args.getInt("seed", 0x5eed);
    if (seed < 0)
        util::fatal("--seed must be non-negative (got " +
                    std::to_string(seed) + ")");
    options.seed = static_cast<uint64_t>(seed);
    return networks;
}

bool
printListing(const util::ArgParser &args, const EngineRegistry &registry,
             std::ostream &out)
{
    // One "name  help" line per entry, the name left-aligned in a
    // column of @p width.
    auto line = [&out](const std::string &name, size_t width,
                       const std::string &help) {
        out << name << std::string(width - std::min(width, name.size()), ' ')
            << ' ' << help << '\n';
    };
    if (args.getBool("list-engines")) {
        for (const auto &kind : registry.kinds())
            line(kind, 14, registry.help(kind));
        return true;
    }
    if (args.getBool("list-memory")) {
        for (const auto &name : memoryPresetNames())
            line(name, 8, memoryPresetHelp(name));
        return true;
    }
    return false;
}

} // namespace sim
} // namespace pra
