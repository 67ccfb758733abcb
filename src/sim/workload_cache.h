/**
 * @file
 * Shared workload substrate for sweeps: synthesized or propagated
 * neuron streams, packed per-brick term-count/oneffset-bound planes,
 * and a thread-safe cache with three kinds of entry:
 *
 *  - layers (WorkloadCache::LayerKey): (network name, workload
 *    fingerprint, seed, layer, stream-or-mode tag, batch image) — one
 *    input stream and its activation-side planes;
 *  - chains (ChainKey): (network name, workload fingerprint, seed,
 *    batch image) — one reference forward pass (dnn/propagate.h),
 *    built exactly once per cache no matter how many engines and
 *    layers consume it (an uncached source memoizes its own);
 *  - weights (WeightKey): (network name, workload fingerprint, layer,
 *    activation mode, plus the seed in propagated mode) — one layer's
 *    weight-side planes. Weights depend on neither the batch image
 *    nor the input stream, so every image and stream of a layer
 *    shares one object; synthetic weights do not even depend on the
 *    seed.
 *
 * The fingerprint covers the layer list and calibration targets, so
 * two selections of one network never share entries. Results are
 * identical across thread counts and with the cache on or off.
 *
 * Every entry is a pure function of its key, so it does not matter
 * who builds it: a threaded sweep (sim/sweep.h) resolves chains
 * (chain()), weight planes (weights()) and streams (layer()) from
 * prefetch tasks ahead of its cells, which then find them built or
 * in flight.
 *
 * Lifetime: an entry lives until release() drops its network (name
 * and fingerprint) or the cache goes. A sweep releases each network
 * after the last pass and prefetch task that reads it, so a serial
 * grid holds one network's entries at a time. Whatever the cache
 * handed out stays valid after a release, because every holder
 * co-owns it through its shared_ptr.
 *
 * Every value-dependent engine in a sweep grid consumes some
 * synthesized stream of each layer — convolutional or
 * fully-connected alike (an FC layer's stream is its lowered
 * 1 x 1 x I input column). Without sharing, each grid cell
 * re-synthesizes its streams from scratch, so sweep cost grows with
 * the grid size instead of with the number of *distinct* workloads.
 * The cache synthesizes each (network, stream, seed) workload once
 * and hands every consumer an immutable std::shared_ptr view.
 *
 * A LayerWorkload also precomputes, per 16-channel brick position,
 * packed summaries of the oneffset content the engines otherwise
 * rederive lane by lane (the plane types and builders live in
 * sim/operand_planes.h, shared with the weight-side planes):
 *
 *  - pop:     total oneffsets (set bits) of the brick — the brick's
 *             effectual-term count;
 *  - maxPop:  the busiest lane's oneffset count — exactly the
 *             single-stage (L=4) PIP schedule length;
 *  - orPop:   distinct oneffset positions across the brick — exactly
 *             the L=0 schedule length, and an upper bound for any L;
 *  - nonZero: non-zero lanes — the zero-skip term count.
 *
 * Since the brick schedule length is monotone in L between orPop
 * (L=0) and maxPop (L=4) — properties asserted by the schedule test
 * suite — engines can serve L=0/L=4 from the planes outright and skip
 * the cycle-by-cycle schedule for any L whenever orPop == maxPop,
 * without changing a single result bit.
 *
 * For the intermediate widths (L in 1..3, which include the paper's
 * headline 2-stage design) a workload additionally memoizes
 * *schedule-cycle planes*: one lazily built, thread-safe plane per L
 * holding the exact brickScheduleCycles() of every brick, computed
 * row-at-a-time by the batched kernel
 * (models::scheduleCyclesRow). A brick's schedule length depends only
 * on its input position and L — not on which window visits it — so
 * one plane serves every overlapping window (Fx x Fy revisits), both
 * Pragmatic engines, and every sweep cell sharing the workload. The
 * planes are an exact memoization, not an approximation: results are
 * bit-identical with them on or off (setCyclePlanesEnabled).
 *
 * A grid tells its cache which widths each network's engines read
 * (planCycleWidths, from Engine::cycleWidths). The cache's workloads
 * then build that whole set in one pass over the tensor, on the
 * first cyclePlane() call for any width of it, with each brick loaded
 * once and every width drained in lock step. Only the widths the grid
 * reads are built; any other width, and every width of a workload
 * with no set (uncached sources, a cache with no plan), builds alone
 * on first use.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/network.h"
#include "dnn/propagate.h"
#include "dnn/tensor.h"
// The cycle planes memoize the Pragmatic brick schedule, so the
// workload reaches up into models/pragmatic for the batched kernel
// and its width sets; everything builds into the one pra_core
// library.
#include "models/pragmatic/schedule.h"
#include "sim/operand_planes.h"

namespace pra {
namespace sim {

/**
 * Which synthesized neuron stream an engine's simulateLayer expects.
 * None marks value-independent engines (geometry only); workload
 * sources hand them an empty view and skip synthesis entirely.
 */
enum class InputStream { None, Fixed16Raw, Fixed16Trimmed, Quant8 };

/**
 * Where layer input streams come from.
 *
 * Synthetic: each layer's stream is synthesized independently,
 * calibrated to the paper's Table I/V statistics (the historical
 * default; all committed goldens are synthetic).
 *
 * Propagated: the streams come from one reference forward pass of
 * the whole network (dnn/propagate.h) — each layer's input is the
 * previous layer's actual output through ReLU, pooling, and
 * requantization into the layer's profiled window, so inter-layer
 * correlation is real. Requires a chain-consistent pipeline network
 * (LayerSelect::All with its pool layers). The trimmed view equals
 * the raw one (requantized codes carry no sub-window noise) and the
 * quantized view applies per-layer zero-nudged affine quantization
 * to the propagated codes.
 */
enum class ActivationMode { Synthetic, Propagated };

/**
 * Globally enable/disable serving intermediate-L schedule lengths
 * from the memoized cycle planes (default: enabled). The planes are
 * an exact memoization, so this changes wall-clock only, never a
 * result bit — the switch is a test hook: the sweep tests price
 * grids both ways and compare the CSV bytes. Not synchronized with
 * in-flight simulations: flip it only between runs.
 */
// pra-lint: allow(test-only-api) a test hook until the benchmark change
void setCyclePlanesEnabled(bool enabled);
bool cyclePlanesEnabled();

/** Parse an --activations= value; fatal() on anything else. */
ActivationMode parseActivationMode(const std::string &text);

/**
 * The stream whose workload serves @p stream in @p mode: itself,
 * except that propagated codes already live inside the profiled
 * window, so trimming is the identity (see dnn/propagate.h) and the
 * propagated trimmed view is the raw one.
 */
InputStream canonicalStream(InputStream stream, ActivationMode mode);

/**
 * Synthesize the stream @p stream of layer @p layer_idx for batch
 * image @p image (image 0 = the historical single-image stream).
 */
dnn::NeuronTensor
synthesizeStream(const dnn::ActivationSynthesizer &activations,
                 int layer_idx, InputStream stream, int image = 0);

/**
 * Derive the stream @p stream of layer @p layer_idx from a
 * propagated chain (raw = the chain input itself, trimmed = masked,
 * quant8 = per-layer affine quantization of the codes).
 */
dnn::NeuronTensor
propagatedStream(const dnn::PropagatedChain &chain,
                 const dnn::Network &network, int layer_idx,
                 InputStream stream);

/**
 * One layer's input stream plus its lazily built operand planes
 * (sim/operand_planes.h owns the plane types and builders).
 * Immutable once constructed; share freely across threads via
 * std::shared_ptr<const LayerWorkload>. Activation-side planes
 * (brick, lane-pop, cycle) derive from the stream tensor; the
 * optional weight-side planes derive from the layer's weight source
 * — everything is built on first use, so activation-only engines
 * never pay for operand sides they don't read.
 */
class LayerWorkload
{
  public:
    /**
     * Resolves the workload's weight-side planes on first
     * weightPlanes() use. An empty builder means a private build of
     * the synthetic weight streams (seed-independent;
     * sim::syntheticWeightPlanes); propagated sources install a
     * builder that requantizes the reference filters instead, and a
     * WorkloadCache installs one that returns its shared per-layer
     * entry.
     */
    using WeightPlaneBuilder =
        std::function<std::shared_ptr<const WeightBrickPlanes>(
            const dnn::LayerSpec &)>;

    /**
     * Wrap a synthesized stream (empty tensor = no-input view). The
     * schedule widths @p cycle_widths (a subset of
     * models::kAllScheduleWidths) build together, in one pass, on the
     * first cyclePlane() call for any of them.
     */
    explicit LayerWorkload(dnn::NeuronTensor tensor,
                           WeightPlaneBuilder weight_builder = {},
                           models::ScheduleWidths cycle_widths = 0);

    const dnn::NeuronTensor &tensor() const { return tensor_; }

    /**
     * The packed brick planes, built on first use (thread-safe).
     * Must not be called on an empty (no-input) workload.
     */
    const BrickPlanes &brickPlanes() const;

    /**
     * The per-lane popcount planes (Laconic's act-side operand),
     * built on first use (thread-safe). Must not be called on an
     * empty (no-input) workload.
     */
    const LanePopPlanes &lanePopPlanes() const;

    /**
     * The weight-side planes of @p layer (the layer this workload is
     * the input stream of — every caller must pass the same spec),
     * resolved on first use (thread-safe) with kBrickSize lanes per
     * set. Synthetic workloads derive them from the layer alone;
     * propagated workloads install a builder over the requantized
     * reference filters, so weight-aware engines price the same
     * weights the forward pass convolved. Workloads from a
     * WorkloadCache all point at the cache's one object per layer.
     */
    const WeightBrickPlanes &
    weightPlanes(const dnn::LayerSpec &layer) const;

    /**
     * The schedule-cycle plane for first-stage width
     * @p first_stage_bits, built on first use (thread-safe). Entry
     * BrickPlanes::index(x, y, brick) is the exact
     * models::brickScheduleCycles() of that brick — the memoized
     * answer BrickCostModel serves instead of rerunning the serial
     * schedule per (window, synapse-set) visit. Only the widths the
     * packed planes cannot already answer are valid here: 1 <=
     * first_stage_bits <= 3 (L=0 is orPop, L=4 is maxPop). A width
     * in the constructor's set builds the whole set in one pass under
     * one once-flag; any other width builds alone. Must not be called
     * on an empty (no-input) workload.
     */
    std::span<const uint8_t> cyclePlane(int first_stage_bits) const;

    /** The widths whose cycle planes have been built so far. */
    models::ScheduleWidths cyclePlanesBuilt() const
    {
        return cyclesBuilt_.load(std::memory_order_acquire);
    }

  private:
    /** Build the cycle planes of @p widths in one pass. */
    void buildCyclePlanes(models::ScheduleWidths widths) const;

    dnn::NeuronTensor tensor_;
    WeightPlaneBuilder weightBuilder_;
    mutable std::once_flag planesOnce_;
    mutable BrickPlanes planes_;
    mutable std::once_flag lanePopsOnce_;
    mutable LanePopPlanes lanePops_;
    mutable std::once_flag weightOnce_;
    mutable std::shared_ptr<const WeightBrickPlanes> weightPlanes_;
    /** Built together on first use of any of them. */
    const models::ScheduleWidths cycleWidths_;
    mutable std::once_flag cycleSetOnce_;
    /**
     * Slot l holds the plane for first_stage_bits == l + 1; slot
     * l's once-flag builds it alone when l + 1 is outside the set.
     */
    mutable std::once_flag cyclesOnce_[3];
    mutable std::vector<uint8_t> cycles_[3];
    mutable std::atomic<models::ScheduleWidths> cyclesBuilt_{0};
};

/**
 * Thread-safe cache of synthesizers, layer workloads, propagated
 * chains, and per-layer weight planes (see the file comment for the
 * keys). The fingerprint
 * (Network::workloadFingerprint()) covers the layer list and the
 * calibration targets, keeping two selections of the same network —
 * e.g. AlexNet conv-only vs its FC tail, both named "AlexNet" — or
 * same-named networks with different targets from silently sharing
 * each other's streams. Concurrent requests for the same key block
 * until the first requester finishes building; everyone shares one
 * immutable object.
 */
class WorkloadCache
{
  public:
    WorkloadCache() = default;

    WorkloadCache(const WorkloadCache &) = delete;
    WorkloadCache &operator=(const WorkloadCache &) = delete;

    /** The shared synthesizer for (network, seed). */
    std::shared_ptr<const dnn::ActivationSynthesizer>
    synthesizer(const dnn::Network &network, uint64_t seed);

    /**
     * The shared workload of layer @p layer_idx's @p stream under
     * @p synth, drawn from synthesis or from the shared propagated
     * chain per @p mode, for batch image @p image (the LayerKey
     * carries the image index, so every image of a batched request
     * is its own cache entry shared across all consumers of that
     * image). InputStream::None returns the shared empty view.
     * The workload's weightPlanes() resolve through this cache's
     * per-layer weight entry, which the workload co-owns, so they
     * stay valid after the cache is gone.
     */
    std::shared_ptr<const LayerWorkload>
    layer(const dnn::ActivationSynthesizer &synth, int layer_idx,
          InputStream stream,
          ActivationMode mode = ActivationMode::Synthetic,
          int image = 0);

    /**
     * The shared weight planes of layer @p layer_idx of @p synth's
     * network in @p mode (the seed counts only in propagated mode),
     * built on first request: the one object the weightPlanes() of
     * every layer() workload of that layer resolves to.
     */
    std::shared_ptr<const WeightBrickPlanes>
    weights(const dnn::ActivationSynthesizer &synth, int layer_idx,
            ActivationMode mode);

    /**
     * The shared propagated chain for @p synth's (network, seed) and
     * batch image @p image: one reference forward pass per image,
     * built once and handed to every consumer.
     */
    std::shared_ptr<const dnn::PropagatedChain>
    chain(const dnn::ActivationSynthesizer &synth, int image = 0);

    /**
     * Drop every synthesizer, chain, layer and weight entry of
     * @p network (its name and workload fingerprint, under any seed,
     * image, stream or mode). What was handed out stays valid, since
     * its holders co-own it; a later request builds the entry again
     * (a layer request counts a miss). No build of @p network may be
     * in flight: every dropped entry must be built (PRA_CHECKed).
     */
    void release(const dnn::Network &network);

    /**
     * Add @p widths to the schedule widths read from @p network's
     * (name and fingerprint) workloads: every layer() workload of the
     * network built afterwards builds all of them in one pass
     * (LayerWorkload's cycle_widths). A grid plans its networks
     * before its first pass; the plan outlives release().
     */
    void planCycleWidths(const dnn::Network &network,
                         models::ScheduleWidths widths);

    /**
     * Layer-workload requests served from / added to the cache so
     * far (chain, synthesizer, and weight lookups do not count).
     */
    int64_t hits() const;
    int64_t misses() const;

  private:
    /**
     * (name, workload fingerprint, seed, layer index,
     * stream | mode tag, batch image): synthetic and propagated
     * workloads of the same layer are distinct entries, and so is
     * every image of a batch.
     */
    using LayerKey =
        std::tuple<std::string, uint64_t, uint64_t, int, int, int>;
    /** (name, workload fingerprint, seed). */
    using SynthKey = std::tuple<std::string, uint64_t, uint64_t>;
    /** (name, workload fingerprint, seed, batch image). */
    using ChainKey = std::tuple<std::string, uint64_t, uint64_t, int>;
    /**
     * (name, workload fingerprint, layer index, activation mode,
     * seed — 0 in synthetic mode, whose weights ignore it).
     */
    using WeightKey =
        std::tuple<std::string, uint64_t, int, int, uint64_t>;

    template <typename V> struct Entry
    {
        std::promise<std::shared_ptr<V>> promise;
        std::shared_future<std::shared_ptr<V>> future;
    };

    /**
     * The entry of @p key in @p entries, built by @p build on first
     * request. The first requester builds outside the lock, so other
     * keys proceed concurrently and same-key requesters block on the
     * future. @p counted requests bump hits()/misses().
     */
    template <typename V, typename Key, typename Build>
    std::shared_ptr<V> resolve(std::map<Key, Entry<V>> &entries,
                               const Key &key, bool counted,
                               Build &&build);

    /**
     * One layer's weight planes, built on the first resolve() — from
     * weights() or from the weightPlanes() of any workload holding
     * the cell. The cache only hands cells out, so a cell outlives
     * the cache while workloads still point at it.
     */
    struct WeightCell
    {
        WeightCell(ActivationMode mode, uint64_t seed)
            : mode(mode), seed(seed)
        {
        }

        /** The planes of @p layer, built once (thread-safe). */
        std::shared_ptr<const WeightBrickPlanes>
        resolve(const dnn::LayerSpec &layer);

        const ActivationMode mode;
        const uint64_t seed;
        std::once_flag once;
        std::shared_ptr<const WeightBrickPlanes> planes;
    };

    /**
     * The weight cell of (@p network, @p layer_idx, @p mode, @p seed),
     * created on first request.
     */
    std::shared_ptr<WeightCell> weightCell(const dnn::Network &network,
                                           int layer_idx,
                                           ActivationMode mode,
                                           uint64_t seed);

    /** planCycleWidths' union for @p network (0 when unplanned). */
    models::ScheduleWidths
    plannedCycleWidths(const dnn::Network &network) const;

    mutable std::mutex mutex_;
    std::map<SynthKey, Entry<const dnn::ActivationSynthesizer>> synths_;
    std::map<ChainKey, Entry<const dnn::PropagatedChain>> chains_;
    std::map<LayerKey, Entry<const LayerWorkload>> layers_;
    std::map<WeightKey, std::shared_ptr<WeightCell>> weights_;
    /** (name, workload fingerprint) -> planCycleWidths' union. */
    std::map<std::pair<std::string, uint64_t>, models::ScheduleWidths>
        cycleWidths_;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
};

/**
 * Where one simulation run's workloads come from: a synthesizer (and
 * activation mode), optionally backed by a shared cache. Uncached
 * sources rebuild workloads on every request — exactly the same
 * values, just not shared — so results are byte-identical with the
 * cache on or off; an uncached propagated source memoizes its own
 * forward pass (one chain per source, not per layer request).
 *
 * A source is consumed from the one thread driving its grid cell;
 * the chain memo is not synchronized (the shared cache is).
 */
class WorkloadSource
{
  public:
    /** Uncached: every layer() call rebuilds its workload. */
    explicit WorkloadSource(
        const dnn::ActivationSynthesizer &synth,
        ActivationMode mode = ActivationMode::Synthetic)
        : synth_(synth), mode_(mode)
    {
    }

    /** Cached: layer() shares workloads through @p cache. */
    WorkloadSource(const dnn::ActivationSynthesizer &synth,
                   WorkloadCache &cache,
                   ActivationMode mode = ActivationMode::Synthetic)
        : synth_(synth), cache_(&cache), mode_(mode)
    {
    }

    const dnn::ActivationSynthesizer &synthesizer() const
    {
        return synth_;
    }

    ActivationMode mode() const { return mode_; }

    /** The batch image this source's streams belong to. */
    int image() const { return image_; }

    /**
     * A copy of this source bound to batch image @p image: same
     * synthesizer, cache, and mode, but every layer() call now yields
     * that image's stream. The local chain memo carries over only
     * when the image is unchanged (a different image propagates a
     * different forward pass).
     */
    WorkloadSource withImage(int image) const;

    /** The workload view of layer @p layer_idx's @p stream. */
    std::shared_ptr<const LayerWorkload>
    layer(int layer_idx, InputStream stream) const;

    /**
     * The propagated chain backing this source (shared or memoized
     * locally); fatal() in synthetic mode.
     */
    std::shared_ptr<const dnn::PropagatedChain> chain() const;

  private:
    const dnn::ActivationSynthesizer &synth_;
    WorkloadCache *cache_ = nullptr;
    ActivationMode mode_ = ActivationMode::Synthetic;
    int image_ = 0;
    mutable std::shared_ptr<const dnn::PropagatedChain> localChain_;
};

} // namespace sim
} // namespace pra

