/**
 * @file
 * The one grid driver that prices (network x engine) cells, and the
 * parallel sweep built on it.
 *
 * priceGrid runs one Engine::runNetwork pass per (cell, batch image)
 * and hands each cell's per-image results, in image order, to a fold
 * callback. Both result kinds the repo reports come from it: runSweep
 * folds a cell into one per-batch NetworkResult, and the serving
 * sweep (sim/serving/serving_sim.h) folds it into a batch cost curve.
 * All cells of a grid draw their synthesized streams from one
 * WorkloadCache (unless disabled), so each distinct (network,
 * representation, trim, seed, image) workload is built exactly once
 * no matter how many engines consume it, and each of those
 * workloads builds the schedule-cycle planes of every width its
 * network's engines read (Engine::cycleWidths) in one pass. Each
 * network (name and workload fingerprint, so a duplicated network
 * counts once) keeps a countdown of its passes and prefetch tasks;
 * the task that ends it releases the network's cache entries, which
 * no pending task reads.
 *
 * Scheduling is two-level: with threads > 1 every (cell, image) pass
 * is its own pool task, and when there are fewer passes than threads
 * each pass may additionally split large layers into
 * ceil(threads / passes) pallet blocks on the same pool (see
 * InnerExecutor). With the cache on, the
 * passes queue behind one prefetch task per shared input they read
 * (planGridPrefetch: propagated chains, weight planes, streams), so
 * the inputs build side by side instead of inside whichever pass
 * asks first. Propagated streams and the passes that read them wait
 * for their chain outside the queue: the chain's task queues them
 * once it is built. Chains and weight planes are queued up front;
 * the other streams and passes of a network are queued only while it
 * is one of the two lowest-numbered networks with passes left, and
 * each release queues the next network's. threads <= 1 is serial:
 * cell by cell, image by image, each network released after its last
 * cell.
 *
 * Determinism: streams depend only on (network, seed, image) —
 * identical whether cached or rebuilt — each pass writes its own
 * slot, a cell's images fold in image order, and block splits
 * combine exact integer partials in block order, so the output is
 * bit-identical for any thread count and with the cache on or off.
 *
 * When options.accel.memory is enabled (--memory=<preset>), every
 * sweep cell's compute result is composed with the memory-hierarchy
 * model (sim/memory/memory_model.h) after its images fold: pure
 * per-layer arithmetic, so the determinism guarantees above are
 * unchanged and the compute columns are byte-identical to a
 * memory-off run of the same grid.
 */

#pragma once

#include <functional>
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

/** Options every priced grid shares: sweeps and serving sweeps. */
struct GridOptions
{
    /**
     * Worker threads: <= 1 prices the grid serially; more fans every
     * (cell, image) pass out as its own pool task, behind one task
     * per shared input when the cache is on (planGridPrefetch).
     */
    int threads = 1;
    /**
     * Share workloads across the grid; each network's entries are
     * dropped after its last pass, and a threaded grid prefetches
     * the streams of two networks at a time. Off, every cell builds
     * its own inputs, nothing is prefetched, and every pass is
     * queued at once.
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
};

/** Options of a (network x engine) sweep. */
struct SweepOptions : GridOptions
{
    /**
     * Images per request: every cell prices this many per-image
     * streams and reports per-batch totals (plus the batch /
     * cycles_per_image CSV columns), accumulated image by image with
     * accumulateBatchImage. 1 — the default — is byte-identical to
     * the historical single-image sweep.
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
 * One shared input a threaded, cached grid builds as its own pool
 * task ahead of the passes (see priceGrid): a propagated chain, one
 * layer's weight planes, or one layer stream of one batch image.
 */
struct GridPrefetch
{
    enum class Kind { Chain, Weights, Stream };

    Kind kind = Kind::Chain;
    size_t network = 0;   ///< Index into the grid's networks.
    int layer = -1;       ///< Weights, Stream: the priced layer.
    InputStream stream = InputStream::None; ///< Stream: which view.
    int image = 0;        ///< Chain, Stream: the batch image.
};

/**
 * The shared inputs the grid-order cells [@p first, @p last) read
 * from the grid cache over @p images batch images, in build order:
 * every propagated (network, image) chain first (the longest
 * builds), then the (network, priced layer) weight planes of
 * networks with an engine that readsSharedWeights(), then every
 * (network, image, priced layer, stream) named by the engines'
 * inputStream(). priceGrid queues a propagated grid's streams from
 * their chain's task instead, once it is built. Empty with the cache
 * off.
 */
std::vector<GridPrefetch>
planGridPrefetch(const std::vector<dnn::Network> &networks,
                 const std::vector<EngineSelection> &engines,
                 const EngineRegistry &registry,
                 const GridOptions &options, int images, size_t first,
                 size_t last);

/**
 * Receives one cell's results, one per batch image in image order.
 * @p cell indexes the grid-order cell list (network-major,
 * engine-minor). Called once per cell, possibly on a pool worker;
 * calls for distinct cells may run concurrently.
 */
using CellFold =
    std::function<void(size_t cell, std::vector<NetworkResult> images)>;

/**
 * Price the grid-order cells [@p first, @p last) of (networks x
 * engines) over @p images batch images (>= 1): one
 * Engine::runNetwork pass per (cell, image) on
 * WorkloadSource::withImage(image), scheduled per options.threads
 * (see file comment), handing each cell's results to @p fold on
 * whichever pass finishes the cell last. Engine selections are
 * validated (instantiated once) before any pass starts, so bad knobs
 * fail fast.
 */
void priceGrid(const std::vector<dnn::Network> &networks,
               const std::vector<EngineSelection> &engines,
               const EngineRegistry &registry, const GridOptions &options,
               int images, size_t first, size_t last,
               const CellFold &fold);

/**
 * Run the (networks x engines) grid — or, when options selects a
 * shard, its contiguous slice — through priceGrid. Returns one
 * NetworkResult per covered cell in grid order: all engines of
 * networks[0], then networks[1], ... Each is its images accumulated
 * in image order (accumulateBatchImage), with batchImages stamped and
 * the memory model applied.
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

