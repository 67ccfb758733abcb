#include "sim/engine.h"

namespace pra {
namespace sim {

NetworkResult
Engine::runNetwork(const dnn::Network &network,
                   const WorkloadSource &source, const AccelConfig &accel,
                   const SampleSpec &sample,
                   const util::InnerExecutor &exec) const
{
    NetworkResult result;
    result.networkName = network.name;
    result.engineName = name();
    result.layers.reserve(network.layers.size());
    for (size_t i = 0; i < network.layers.size(); i++) {
        // Pool layers are structural (shape bridging for the
        // propagated pipeline): no engine prices them.
        if (!network.layers[i].priced())
            continue;
        std::shared_ptr<const LayerWorkload> workload =
            source.layer(static_cast<int>(i), inputStream());
        result.layers.push_back(simulateLayer(network.layers[i],
                                              *workload, accel, sample,
                                              exec));
    }
    return result;
}

} // namespace sim
} // namespace pra
