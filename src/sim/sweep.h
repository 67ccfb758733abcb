/**
 * @file
 * Parallel (network x engine) sweep driver with a shared workload
 * cache and two-level scheduling.
 *
 * A sweep fans the full grid of (model-zoo network, engine variant)
 * jobs out across a worker pool and collects one NetworkResult per
 * cell. All cells of a grid draw their synthesized streams from one
 * WorkloadCache (unless disabled), so each distinct (network,
 * representation, trim, seed) workload is built exactly once no
 * matter how many engines consume it.
 *
 * Scheduling is two-level: grid cells fan out across the pool, and
 * when the grid alone cannot occupy every worker (fewer cells than
 * threads) each cell may additionally split large layers into pallet
 * blocks on the same pool (see InnerExecutor). With the cache on, the
 * cells queue behind one prefetch task per shared input they read
 * (planSweepPrefetch: propagated chains, weight planes, streams), so
 * the inputs build side by side instead of inside whichever cell
 * asks first.
 *
 * Determinism: streams depend only on (network, seed) — identical
 * whether cached or rebuilt — results are stored by grid position
 * (network-major, engine-minor), and block splits combine exact
 * integer partials in block order, so the output is bit-identical
 * for any thread count, any inner-thread count, and with the cache
 * on or off.
 *
 * When options.accel.memory is enabled (--memory=<preset>), every
 * cell's compute result is composed with the memory-hierarchy model
 * (sim/memory/memory_model.h) after its engine finishes: pure
 * per-layer arithmetic, so the determinism guarantees above are
 * unchanged and the compute columns are byte-identical to a
 * memory-off run of the same grid.
 */

#pragma once

#include <ostream>
#include <vector>

#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/engine_registry.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"

namespace pra {
namespace sim {

/** Options shared by every job of a sweep. */
struct SweepOptions
{
    /**
     * Worker threads (<= 1: sequential unless innerThreads splits).
     * A threaded sweep with the cache on queues one pool task per
     * shared input (planSweepPrefetch) ahead of its cells.
     */
    int threads = 1;
    /**
     * Layer-splitting subtasks each cell may fan out on the shared
     * pool: 0 picks automatically (split only when the grid has
     * fewer cells than threads), 1 disables inner parallelism, N
     * allows up to N blocks per layer.
     */
    int innerThreads = 0;
    /**
     * Share workloads across the grid. Off, every cell builds its
     * own inputs and nothing is prefetched.
     */
    bool cache = true;
    AccelConfig accel;        ///< Machine configuration.
    SampleSpec sample{64};    ///< Per-layer sampling cap.
    uint64_t seed = 0x5eed;   ///< Activation-synthesis seed.
    /**
     * Synthetic (default: calibrated independent streams, the
     * committed-golden workload) or Propagated (streams from one
     * reference forward pass; networks must be full pipelines —
     * LayerSelect::All with pools). See sim/workload_cache.h.
     */
    ActivationMode activations = ActivationMode::Synthetic;
    /**
     * Images per request: every cell runs Engine::runBatch over this
     * many per-image streams and reports per-batch totals (plus the
     * batch / cycles_per_image CSV columns). 1 — the default — is
     * byte-identical to the historical single-image sweep.
     */
    int batch = 1;
    /**
     * Grid shard [shardIndex / shardCount): the sweep prices only
     * its contiguous share of the grid-order cell list, cells
     * [cells * i / N, cells * (i+1) / N), and returns only those
     * results — so concatenating the CSV bodies of shards 0..N-1
     * reproduces the unsharded output byte for byte. The default
     * 0/1 covers the whole grid.
     */
    int shardIndex = 0;
    int shardCount = 1;
};

/**
 * One shared input a threaded, cached sweep builds as its own pool
 * task ahead of the cells (see runSweep): a propagated chain, one
 * layer's weight planes, or one layer stream of one batch image.
 */
struct SweepPrefetch
{
    enum class Kind { Chain, Weights, Stream };

    Kind kind = Kind::Chain;
    size_t network = 0;   ///< Index into the sweep's networks.
    int layer = -1;       ///< Weights, Stream: the priced layer.
    InputStream stream = InputStream::None; ///< Stream: which view.
    int image = 0;        ///< Chain, Stream: the batch image.
};

/**
 * The shared inputs the cells of @p options' shard read from the
 * sweep cache, in build order: every propagated (network, image)
 * chain first (the longest builds), then the (network, priced layer)
 * weight planes of networks with an engine that readsSharedWeights(),
 * then every (network, priced layer, stream, image) named by the
 * engines' inputStream(). Empty with the cache off.
 */
std::vector<SweepPrefetch>
planSweepPrefetch(const std::vector<dnn::Network> &networks,
                  const std::vector<EngineSelection> &engines,
                  const EngineRegistry &registry,
                  const SweepOptions &options);

/**
 * Run the (networks x engines) grid — or, when options selects a
 * shard, its contiguous slice. Returns one NetworkResult per covered
 * cell in grid order: all engines of networks[0], then networks[1],
 * ... Engine selections are validated (instantiated once) before any
 * worker starts, so bad knobs fail fast.
 */
std::vector<NetworkResult>
runSweep(const std::vector<dnn::Network> &networks,
         const std::vector<EngineSelection> &engines,
         const EngineRegistry &registry, const SweepOptions &options);

/**
 * Find the cell for (network, engine-label) in sweep results;
 * fatal() when absent.
 */
const NetworkResult &findResult(const std::vector<NetworkResult> &results,
                                const std::string &network,
                                const std::string &engine);

/**
 * Emit sweep results as CSV in grid order. Per-network totals by
 * default; @p per_layer adds one row per layer instead. Formatting
 * uses round-trip precision, so two result sets are bit-identical iff
 * their CSV dumps are byte-identical. Results carrying memory
 * modeling grow the on_chip_bytes / off_chip_bytes /
 * mem_stall_cycles / system_cycles / bw_bound columns; compute-only
 * results keep the historical (golden-pinned) column set.
 */
void writeSweepCsv(std::ostream &out,
                   const std::vector<NetworkResult> &results,
                   bool per_layer = false);

} // namespace sim
} // namespace pra

