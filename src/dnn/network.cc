#include "dnn/network.h"

#include <bit>

#include "util/random.h"

namespace pra {
namespace dnn {

int64_t
Network::totalProducts() const
{
    int64_t total = 0;
    for (const auto &layer : layers)
        if (layer.priced())
            total += layer.products();
    return total;
}

uint64_t
Network::workloadFingerprint() const
{
    // FNV-1a over every field that shapes a synthesized workload.
    uint64_t h = util::kFnv1aOffset;
    for (double target :
         {targets.all16, targets.nz16, targets.all8, targets.nz8,
          targets.softwareBenefit})
        h = util::fnv1aMix(h, std::bit_cast<uint64_t>(target));
    h = util::fnv1aMix(h, layers.size());
    for (const auto &layer : layers) {
        h = util::fnv1a(layer.name, h);
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.kind));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.inputX));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.inputY));
        h = util::fnv1aMix(h,
                           static_cast<uint64_t>(layer.inputChannels));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.filterX));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.filterY));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.numFilters));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.stride));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.pad));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.poolOp));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.poolCeil));
        h = util::fnv1aMix(
            h, static_cast<uint64_t>(layer.profiledPrecision));
        h = util::fnv1aMix(
            h, static_cast<uint64_t>(layer.profiledWeightPrecision));
        h = util::fnv1aMix(h, static_cast<uint64_t>(layer.ordinal));
        h = util::fnv1aMix(h, layer.producers.size());
        for (int producer : layer.producers)
            h = util::fnv1aMix(h, static_cast<uint64_t>(producer));
    }
    return h;
}

namespace {

std::string
chainMismatch(const Network &net, size_t idx, const std::string &what)
{
    return net.name + " layer " + std::to_string(idx) + " (" +
           net.layers[idx].name + "): " + what;
}

} // namespace

bool
Network::chainConsistent(std::string *why) const
{
    auto fail = [&](size_t idx, const std::string &what) {
        if (why)
            *why = chainMismatch(*this, idx, what);
        return false;
    };
    if (layers.empty())
        return true;
    if (!layers.front().producers.empty())
        return fail(0, "first layer must consume the image, not "
                       "another layer");
    for (size_t j = 1; j < layers.size(); j++) {
        const LayerSpec &layer = layers[j];
        std::vector<int> producers = layer.producers;
        if (producers.empty())
            producers.push_back(static_cast<int>(j) - 1);
        // All producers must precede the consumer and agree on their
        // spatial extent; channels concatenate.
        int out_x = -1;
        int out_y = -1;
        int64_t channels = 0;
        for (int p : producers) {
            if (p < 0 || p >= static_cast<int>(j))
                return fail(j, "producer index " + std::to_string(p) +
                                   " is not an earlier layer");
            const LayerSpec &prod = layers[p];
            if (out_x < 0) {
                out_x = prod.outX();
                out_y = prod.outY();
            } else if (prod.outX() != out_x || prod.outY() != out_y) {
                return fail(j, "concatenated producers disagree on "
                               "spatial extent");
            }
            channels += prod.outChannels();
        }
        if (layer.kind == LayerKind::FullyConnected) {
            // The lowering flattens the producer output into the
            // 1 x 1 x I column.
            int64_t flat = static_cast<int64_t>(out_x) * out_y *
                           channels;
            if (layer.inputChannels != flat)
                return fail(j, "fc expects " +
                                   std::to_string(layer.inputChannels) +
                                   " inputs but producers supply " +
                                   std::to_string(flat));
        } else if (layer.inputX != out_x || layer.inputY != out_y ||
                   layer.inputChannels != channels) {
            return fail(
                j, "expects " + std::to_string(layer.inputX) + "x" +
                       std::to_string(layer.inputY) + "x" +
                       std::to_string(layer.inputChannels) +
                       " but producers supply " +
                       std::to_string(out_x) + "x" +
                       std::to_string(out_y) + "x" +
                       std::to_string(channels));
        }
    }
    return true;
}

bool
Network::valid() const
{
    if (name.empty() || layers.empty())
        return false;
    bool pipeline = false;
    for (const auto &layer : layers) {
        if (!layer.valid())
            return false;
        pipeline |= layer.kind == LayerKind::Pool ||
                    !layer.producers.empty();
    }
    // Pipeline-shaped networks (built for propagation) must chain;
    // see chainConsistent() for why filtered selections are exempt.
    if (pipeline && !chainConsistent())
        return false;
    return true;
}

} // namespace dnn
} // namespace pra
