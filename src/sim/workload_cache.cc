#include "sim/workload_cache.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

namespace {

/** The shared view value-independent engines receive. */
const std::shared_ptr<const LayerWorkload> &
emptyWorkload()
{
    static const std::shared_ptr<const LayerWorkload> empty =
        std::make_shared<const LayerWorkload>(dnn::NeuronTensor());
    return empty;
}

std::atomic<bool> g_cyclePlanesEnabled{true};

/**
 * The weight planes a (mode, seed) workload prices: propagated
 * workloads the requantized reference filters the forward pass
 * convolved, synthetic workloads the layer-pure synthetic weight
 * streams.
 */
std::shared_ptr<const WeightBrickPlanes>
buildWeightPlanes(const dnn::LayerSpec &layer, ActivationMode mode,
                  uint64_t seed)
{
    return std::make_shared<const WeightBrickPlanes>(
        mode == ActivationMode::Propagated
            ? propagatedWeightPlanes(layer, seed)
            : syntheticWeightPlanes(layer));
}

/**
 * Fold (stream, mode) into the int slot of LayerKey: synthetic and
 * propagated views of the same layer must never alias.
 */
int
streamModeTag(InputStream stream, ActivationMode mode)
{
    return static_cast<int>(stream) |
           (static_cast<int>(mode) << 8);
}

} // namespace

void
setCyclePlanesEnabled(bool enabled)
{
    g_cyclePlanesEnabled.store(enabled, std::memory_order_relaxed);
}

bool
cyclePlanesEnabled()
{
    return g_cyclePlanesEnabled.load(std::memory_order_relaxed);
}

ActivationMode
parseActivationMode(const std::string &text)
{
    if (text == "synthetic")
        return ActivationMode::Synthetic;
    if (text == "propagated")
        return ActivationMode::Propagated;
    util::fatal("--activations must be synthetic or propagated (got '" +
                text + "')");
}

InputStream
canonicalStream(InputStream stream, ActivationMode mode)
{
    return mode == ActivationMode::Propagated &&
                   stream == InputStream::Fixed16Trimmed
               ? InputStream::Fixed16Raw
               : stream;
}

dnn::NeuronTensor
synthesizeStream(const dnn::ActivationSynthesizer &activations,
                 int layer_idx, InputStream stream, int image)
{
    switch (stream) {
      case InputStream::None:
        return dnn::NeuronTensor();
      case InputStream::Fixed16Raw:
        return activations.synthesizeFixed16(layer_idx, image);
      case InputStream::Fixed16Trimmed:
        return activations.synthesizeFixed16Trimmed(layer_idx, image);
      case InputStream::Quant8:
        return activations.synthesizeQuant8(layer_idx, image);
    }
    util::fatal("synthesizeStream: bad stream");
}

dnn::NeuronTensor
propagatedStream(const dnn::PropagatedChain &chain,
                 const dnn::Network &network, int layer_idx,
                 InputStream stream)
{
    const dnn::LayerSpec &layer =
        network.layers.at(static_cast<size_t>(layer_idx));
    PRA_CHECK(layer.priced(),
                         "propagatedStream: pools carry no priced "
                         "stream");
    const dnn::NeuronTensor &raw =
        chain.inputs.at(static_cast<size_t>(layer_idx));
    switch (stream) {
      case InputStream::None:
        return dnn::NeuronTensor();
      case InputStream::Fixed16Raw:
        return raw;
      case InputStream::Fixed16Trimmed:
        return dnn::trimToPrecision(layer, raw);
      case InputStream::Quant8:
        return dnn::quantizeStream(raw);
    }
    util::fatal("propagatedStream: bad stream");
}

const BrickPlanes &
LayerWorkload::brickPlanes() const
{
    std::call_once(planesOnce_,
                   [this] { planes_ = buildBrickPlanes(tensor_); });
    return planes_;
}

const LanePopPlanes &
LayerWorkload::lanePopPlanes() const
{
    std::call_once(lanePopsOnce_, [this] {
        lanePops_ = buildLanePopPlanes(tensor_);
    });
    return lanePops_;
}

const WeightBrickPlanes &
LayerWorkload::weightPlanes(const dnn::LayerSpec &layer) const
{
    std::call_once(weightOnce_, [this, &layer] {
        weightPlanes_ =
            weightBuilder_
                ? weightBuilder_(layer)
                : buildWeightPlanes(layer, ActivationMode::Synthetic, 0);
    });
    return *weightPlanes_;
}

LayerWorkload::LayerWorkload(dnn::NeuronTensor tensor,
                             WeightPlaneBuilder weight_builder,
                             models::ScheduleWidths cycle_widths)
    : tensor_(std::move(tensor)),
      weightBuilder_(std::move(weight_builder)),
      cycleWidths_(cycle_widths)
{
    PRA_CHECK((cycle_widths & ~models::kAllScheduleWidths) == 0,
              "LayerWorkload: cycle widths must lie in 1..3");
}

std::span<const uint8_t>
LayerWorkload::cyclePlane(int first_stage_bits) const
{
    PRA_CHECK(first_stage_bits >= 1 && first_stage_bits <= 3,
                         "cyclePlane: only intermediate widths are "
                         "memoized (L=0/4 live in the brick planes)");
    PRA_CHECK(!tensor_.empty(),
                         "cyclePlane: empty workload has no planes");
    const models::ScheduleWidths width =
        models::scheduleWidth(first_stage_bits);
    if (cycleWidths_ & width)
        std::call_once(cycleSetOnce_,
                       [this] { buildCyclePlanes(cycleWidths_); });
    else
        std::call_once(cyclesOnce_[first_stage_bits - 1],
                       [this, width] { buildCyclePlanes(width); });
    return cycles_[first_stage_bits - 1];
}

void
LayerWorkload::buildCyclePlanes(models::ScheduleWidths widths) const
{
    const int channels = tensor_.sizeI();
    const int columns = tensor_.sizeX();
    const int bricks = (channels + dnn::kBrickSize - 1) /
                       dnn::kBrickSize;
    // One batched kernel call per y-row: the tensor's channel-major
    // layout keeps a row's lanes contiguous, so the kernel walks it
    // with no per-brick gather.
    const size_t row_len = static_cast<size_t>(columns) * channels;
    const size_t out_len = static_cast<size_t>(columns) * bricks;
    for (int l = 1; l <= 3; l++)
        if (widths & models::scheduleWidth(l))
            cycles_[l - 1].resize(out_len * tensor_.sizeY());
    for (int y = 0; y < tensor_.sizeY(); y++) {
        std::array<std::span<uint8_t>, 3> out;
        for (int l = 1; l <= 3; l++)
            if (widths & models::scheduleWidth(l))
                out[l - 1] = std::span<uint8_t>(
                    cycles_[l - 1].data() + y * out_len, out_len);
        models::scheduleCyclesRow(
            tensor_.flat().subspan(y * row_len, row_len), columns,
            channels, widths, out);
    }
    cyclesBuilt_.fetch_or(widths, std::memory_order_release);
}

template <typename V, typename Key, typename Build>
std::shared_ptr<V>
WorkloadCache::resolve(std::map<Key, Entry<V>> &entries, const Key &key,
                       bool counted, Build &&build)
{
    std::shared_future<std::shared_ptr<V>> future;
    Entry<V> *mine = nullptr;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto [it, inserted] = entries.try_emplace(key);
        if (inserted) {
            it->second.future = it->second.promise.get_future().share();
            mine = &it->second;
        }
        if (counted)
            (inserted ? misses_ : hits_)++;
        future = it->second.future;
    }
    if (mine) {
        // A failed build must fulfill the promise too, or every
        // waiter hangs.
        try {
            mine->promise.set_value(build());
        } catch (...) {
            mine->promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::shared_ptr<const dnn::ActivationSynthesizer>
WorkloadCache::synthesizer(const dnn::Network &network, uint64_t seed)
{
    return resolve(
        synths_, SynthKey{network.name, network.workloadFingerprint(), seed},
        false, [&] {
            return std::make_shared<const dnn::ActivationSynthesizer>(
                network, seed);
        });
}

std::shared_ptr<const LayerWorkload>
WorkloadCache::layer(const dnn::ActivationSynthesizer &synth,
                     int layer_idx, InputStream stream,
                     ActivationMode mode, int image)
{
    if (stream == InputStream::None)
        return emptyWorkload();
    // Serve the propagated trimmed view from the raw entry instead
    // of storing a bit-identical duplicate (and rebuilding its brick
    // planes).
    stream = canonicalStream(stream, mode);
    const dnn::Network &network = synth.network();
    LayerKey key{network.name, network.workloadFingerprint(),
                 synth.seed(), layer_idx, streamModeTag(stream, mode),
                 image};
    const models::ScheduleWidths widths = plannedCycleWidths(network);
    return resolve(layers_, key, true, [&] {
        dnn::NeuronTensor tensor;
        if (mode == ActivationMode::Propagated) {
            // chain() takes the mutex only briefly; building the
            // chain itself happens outside it, so this nested call
            // cannot deadlock.
            std::shared_ptr<const dnn::PropagatedChain> shared =
                chain(synth, image);
            tensor =
                propagatedStream(*shared, network, layer_idx, stream);
        } else {
            tensor = synthesizeStream(synth, layer_idx, stream, image);
        }
        // Every image and stream of the layer resolves its weights
        // through one shared cell.
        std::shared_ptr<WeightCell> cell =
            weightCell(network, layer_idx, mode, synth.seed());
        return std::make_shared<const LayerWorkload>(
            std::move(tensor),
            [cell](const dnn::LayerSpec &layer) {
                return cell->resolve(layer);
            },
            widths);
    });
}

std::shared_ptr<const WeightBrickPlanes>
WorkloadCache::weights(const dnn::ActivationSynthesizer &synth,
                       int layer_idx, ActivationMode mode)
{
    const dnn::Network &network = synth.network();
    return weightCell(network, layer_idx, mode, synth.seed())
        ->resolve(network.layers.at(static_cast<size_t>(layer_idx)));
}

std::shared_ptr<const dnn::PropagatedChain>
WorkloadCache::chain(const dnn::ActivationSynthesizer &synth,
                     int image)
{
    ChainKey key{synth.network().name,
                 synth.network().workloadFingerprint(), synth.seed(),
                 image};
    return resolve(chains_, key, false, [&] {
        return std::make_shared<const dnn::PropagatedChain>(
            dnn::propagateChain(synth, image));
    });
}

void
WorkloadCache::release(const dnn::Network &network)
{
    const std::string &name = network.name;
    const uint64_t fingerprint = network.workloadFingerprint();
    // Every key leads with (name, fingerprint).
    auto ofNetwork = [&](const auto &entry) {
        return std::get<0>(entry.first) == name &&
               std::get<1>(entry.first) == fingerprint;
    };
    // resolve() fulfils a promise through a pointer into its map, so
    // an entry must be built before it may go.
    auto built = [&](const auto &entry) {
        if (!ofNetwork(entry))
            return false;
        PRA_CHECK(entry.second.future.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready,
                  "WorkloadCache::release: an entry of " + name +
                      " is still being built");
        return true;
    };
    std::unique_lock<std::mutex> lock(mutex_);
    std::erase_if(synths_, built);
    std::erase_if(chains_, built);
    std::erase_if(layers_, built);
    std::erase_if(weights_, ofNetwork);
}

std::shared_ptr<const WeightBrickPlanes>
WorkloadCache::WeightCell::resolve(const dnn::LayerSpec &layer)
{
    std::call_once(once, [&] {
        planes = buildWeightPlanes(layer, mode, seed);
    });
    return planes;
}

std::shared_ptr<WorkloadCache::WeightCell>
WorkloadCache::weightCell(const dnn::Network &network, int layer_idx,
                          ActivationMode mode, uint64_t seed)
{
    // Synthetic weights ignore the seed, so every seed shares one
    // cell.
    if (mode == ActivationMode::Synthetic)
        seed = 0;
    WeightKey key{network.name, network.workloadFingerprint(),
                  layer_idx, static_cast<int>(mode), seed};
    std::unique_lock<std::mutex> lock(mutex_);
    std::shared_ptr<WeightCell> &cell = weights_[key];
    if (!cell)
        cell = std::make_shared<WeightCell>(mode, seed);
    return cell;
}

void
WorkloadCache::planCycleWidths(const dnn::Network &network,
                               models::ScheduleWidths widths)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cycleWidths_[{network.name, network.workloadFingerprint()}] |= widths;
}

models::ScheduleWidths
WorkloadCache::plannedCycleWidths(const dnn::Network &network) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it =
        cycleWidths_.find({network.name, network.workloadFingerprint()});
    return it == cycleWidths_.end() ? 0 : it->second;
}

int64_t
WorkloadCache::hits() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return hits_;
}

int64_t
WorkloadCache::misses() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return misses_;
}

WorkloadSource
WorkloadSource::withImage(int image) const
{
    PRA_CHECK(image >= 0, "WorkloadSource::withImage: batch image "
                          "index must be non-negative");
    WorkloadSource copy(*this);
    if (copy.image_ != image) {
        copy.image_ = image;
        copy.localChain_.reset();
    }
    return copy;
}

std::shared_ptr<const LayerWorkload>
WorkloadSource::layer(int layer_idx, InputStream stream) const
{
    if (stream == InputStream::None)
        return emptyWorkload();
    if (cache_)
        return cache_->layer(synth_, layer_idx, stream, mode_, image_);
    if (mode_ == ActivationMode::Propagated) {
        // The cached path makes the same trimmed-to-raw alias.
        stream = canonicalStream(stream, mode_);
        const uint64_t seed = synth_.seed();
        return std::make_shared<const LayerWorkload>(
            propagatedStream(*chain(), synth_.network(), layer_idx,
                             stream),
            [seed](const dnn::LayerSpec &layer) {
                return buildWeightPlanes(
                    layer, ActivationMode::Propagated, seed);
            });
    }
    return std::make_shared<const LayerWorkload>(
        synthesizeStream(synth_, layer_idx, stream, image_));
}

std::shared_ptr<const dnn::PropagatedChain>
WorkloadSource::chain() const
{
    if (mode_ != ActivationMode::Propagated)
        util::fatal("WorkloadSource::chain: synthetic sources have "
                    "no propagated chain");
    if (cache_)
        return cache_->chain(synth_, image_);
    if (!localChain_)
        localChain_ = std::make_shared<const dnn::PropagatedChain>(
            dnn::propagateChain(synth_, image_));
    return localChain_;
}

} // namespace sim
} // namespace pra
