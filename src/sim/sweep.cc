#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "dnn/activation_synth.h"
#include "sim/memory/memory_model.h"
#include "sim/workload_cache.h"
#include "util/csv.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

using util::roundTrip;

namespace {

/**
 * Blocks one (cell, image) pass may split a layer into: one when the
 * passes alone keep every worker busy, else each pass's share of the
 * pool.
 */
int
innerTasks(const GridOptions &options, size_t passes)
{
    const auto threads = static_cast<size_t>(options.threads);
    if (passes >= threads)
        return 1;
    return static_cast<int>((threads + passes - 1) / passes);
}

/**
 * Network identities whose ungated streams and passes a threaded,
 * cached grid queues at once (see priceGrid).
 */
constexpr size_t kNetworkWindow = 2;

/**
 * One cell's passes in flight: its workload source (made by the
 * cell's first pass, so synthesizer calibration — tens of ms on the
 * larger networks — runs on the workers), one result slot per image,
 * and a countdown of the passes still running. The pass that brings
 * the countdown to zero folds the slots and drops the source.
 */
struct CellPasses
{
    std::once_flag sourced;
    std::shared_ptr<const dnn::ActivationSynthesizer> synth;
    std::optional<WorkloadSource> source;
    std::vector<NetworkResult> images;
    std::atomic<int> pending{0};
};

} // namespace

std::vector<GridPrefetch>
planGridPrefetch(const std::vector<dnn::Network> &networks,
                 const std::vector<EngineSelection> &engines,
                 const EngineRegistry &registry,
                 const GridOptions &options, int images, size_t first,
                 size_t last)
{
    using Kind = GridPrefetch::Kind;
    if (!options.cache)
        return {};
    const bool propagated =
        options.activations == ActivationMode::Propagated;
    std::vector<GridPrefetch> chains;
    std::vector<GridPrefetch> weights;
    std::vector<GridPrefetch> streams;
    for (size_t n = 0; n < networks.size(); n++) {
        // What the network's cells in the range read: the distinct
        // cache streams and whether any reads the weight planes.
        std::vector<InputStream> read;
        bool reads_weights = false;
        for (size_t e = 0; e < engines.size(); e++) {
            const size_t cell = n * engines.size() + e;
            if (cell < first || cell >= last)
                continue;
            std::unique_ptr<Engine> engine = registry.create(engines[e]);
            const InputStream stream =
                canonicalStream(engine->inputStream(), options.activations);
            if (stream != InputStream::None &&
                std::find(read.begin(), read.end(), stream) == read.end())
                read.push_back(stream);
            reads_weights = reads_weights || engine->readsSharedWeights();
        }
        if (propagated && !read.empty())
            for (int b = 0; b < images; b++)
                chains.push_back({Kind::Chain, n, -1, InputStream::None, b});
        const std::vector<dnn::LayerSpec> &layers = networks[n].layers;
        for (size_t l = 0; l < layers.size(); l++)
            if (reads_weights && layers[l].priced())
                weights.push_back({Kind::Weights, n, static_cast<int>(l),
                                   InputStream::None, 0});
        // Image-major, then layer order: the order the passes
        // consume them in.
        for (int b = 0; b < images; b++)
            for (size_t l = 0; l < layers.size(); l++)
                if (layers[l].priced())
                    for (InputStream stream : read)
                        streams.push_back({Kind::Stream, n,
                                           static_cast<int>(l), stream,
                                           b});
    }
    chains.insert(chains.end(), weights.begin(), weights.end());
    chains.insert(chains.end(), streams.begin(), streams.end());
    return chains;
}

void
priceGrid(const std::vector<dnn::Network> &networks,
          const std::vector<EngineSelection> &engines,
          const EngineRegistry &registry, const GridOptions &options,
          int images, size_t first, size_t last, const CellFold &fold)
{
    PRA_CHECK(!networks.empty() && !engines.empty(),
              "priceGrid: empty grid");
    PRA_CHECK(images >= 1, "priceGrid: a batch needs at least one image");
    PRA_CHECK(first <= last && last <= networks.size() * engines.size(),
              "priceGrid: cell range out of the grid");
    // Validate every selection and its machine up front, so knob
    // errors surface before any pass starts; note which engines read
    // a stream (and so, propagated, their network's chain) and which
    // schedule widths they read.
    std::vector<bool> reads_stream;
    std::vector<models::ScheduleWidths> widths;
    for (const auto &sel : engines) {
        std::unique_ptr<Engine> engine = registry.create(sel);
        engine->checkMachine(options.accel);
        reads_stream.push_back(
            canonicalStream(engine->inputStream(), options.activations) !=
            InputStream::None);
        widths.push_back(engine->cycleWidths());
    }
    if (first == last)
        return;

    // Each network's cached workloads build the schedule widths its
    // cells read in one pass, and no other width.
    WorkloadCache cache;
    for (size_t c = first; c < last; c++)
        cache.planCycleWidths(networks[c / engines.size()],
                              widths[c % engines.size()]);
    std::vector<CellPasses> cells(last - first);
    for (auto &cell : cells) {
        cell.images.resize(static_cast<size_t>(images));
        cell.pending = images;
    }
    // One countdown per network identity: its name and workload
    // fingerprint, the cache's key prefix, so a duplicated network
    // shares its twin's. It counts the (cell, image) passes of the
    // identity's cells in [first, last) and, threaded, its prefetch
    // tasks; the task that brings it to zero drops the identity's
    // cache entries, which no pending task reads any more.
    std::vector<size_t> identity(networks.size());
    for (size_t n = 0; n < networks.size(); n++) {
        identity[n] = n;
        for (size_t m = 0; m < n; m++)
            if (networks[m].name == networks[n].name &&
                networks[m].workloadFingerprint() ==
                    networks[n].workloadFingerprint()) {
                identity[n] = m;
                break;
            }
    }
    std::vector<std::atomic<int>> left(networks.size());
    for (size_t c = first; c < last; c++)
        left[identity[c / engines.size()]] += images;
    // Threaded, cached: queues the ungated work of the identities
    // ranked [lo, hi) among those with passes (see below).
    std::function<void(size_t, size_t)> queueRanks;
    std::atomic<size_t> nextRank{0};
    auto done = [&](size_t network) {
        if (!options.cache ||
            left[identity[network]].fetch_sub(1) != 1)
            return;
        cache.release(networks[network]);
        if (queueRanks) {
            const size_t rank = nextRank.fetch_add(1);
            queueRanks(rank, rank + 1);
        }
    };
    // One (cell, image) pass. Each pass builds its own engine and
    // writes its own slot; the cell's source is private (cache off:
    // streams rebuilt per cell) or backed by the grid-wide cache.
    // Streams depend only on (network, seed, image), so both modes
    // and any schedule yield identical results.
    auto pass = [&](size_t c, int image, const util::InnerExecutor &exec) {
        const dnn::Network &network = networks[c / engines.size()];
        CellPasses &cell = cells[c - first];
        std::call_once(cell.sourced, [&] {
            if (options.cache) {
                cell.synth = cache.synthesizer(network, options.seed);
                cell.source.emplace(*cell.synth, cache,
                                    options.activations);
            } else {
                cell.synth =
                    std::make_shared<const dnn::ActivationSynthesizer>(
                        network, options.seed);
                cell.source.emplace(*cell.synth, options.activations);
            }
        });
        std::unique_ptr<Engine> engine =
            registry.create(engines[c % engines.size()]);
        cell.images[static_cast<size_t>(image)] = engine->runNetwork(
            network, cell.source->withImage(image), options.accel,
            options.sample, exec);
        if (cell.pending.fetch_sub(1) == 1) {
            cell.source.reset();
            cell.synth.reset();
            fold(c, std::move(cell.images));
        }
        done(c / engines.size());
    };

    if (options.threads <= 1) {
        for (size_t c = first; c < last; c++)
            for (int i = 0; i < images; i++)
                pass(c, i, util::InnerExecutor());
        return;
    }

    // Builds one shared input into the cache, the synthesizer
    // included, so nothing of it runs on the calling thread.
    auto prefetch = [&](const GridPrefetch &item) {
        std::shared_ptr<const dnn::ActivationSynthesizer> synth =
            cache.synthesizer(networks[item.network], options.seed);
        switch (item.kind) {
          case GridPrefetch::Kind::Chain:
            cache.chain(*synth, item.image);
            break;
          case GridPrefetch::Kind::Weights:
            cache.weights(*synth, item.layer, options.activations);
            break;
          case GridPrefetch::Kind::Stream:
            cache.layer(*synth, item.layer, item.stream,
                        options.activations, item.image);
            break;
        }
    };

    util::ThreadPool pool(options.threads);
    util::InnerExecutor exec(
        &pool, innerTasks(options, cells.size() *
                                       static_cast<size_t>(images)));
    auto submitPass = [&pool, &pass, &exec](size_t c, int image) {
        pool.submit([&pass, &exec, c, image] { pass(c, image, exec); });
    };
    auto submitPrefetch = [&pool, &prefetch,
                           &done](const GridPrefetch &item) {
        pool.submit([&prefetch, &done, item] {
            prefetch(item);
            done(item.network);
        });
    };
    // Gated: a cached propagated pass that reads a stream, and so its
    // (network, image) chain, which the plan then always holds.
    const bool chained =
        options.cache && options.activations == ActivationMode::Propagated;
    auto gated = [&](size_t c) {
        return chained && reads_stream[c % engines.size()];
    };
    const std::vector<GridPrefetch> plan = planGridPrefetch(
        networks, engines, registry, options, images, first, last);
    for (const GridPrefetch &item : plan)
        left[identity[item.network]]++;
    // Queue what a built chain unblocks: its streams, then its passes.
    auto afterChain = [&](const GridPrefetch &chain) {
        for (const GridPrefetch &item : plan)
            if (item.kind == GridPrefetch::Kind::Stream &&
                item.network == chain.network && item.image == chain.image)
                submitPrefetch(item);
        const size_t lo = std::max(first, chain.network * engines.size());
        const size_t hi =
            std::min(last, (chain.network + 1) * engines.size());
        for (size_t c = lo; c < hi; c++)
            if (gated(c))
                submitPass(c, chain.image);
    };
    // The window: an identity's ungated streams and passes join the
    // queue only while it ranks among the kNetworkWindow
    // lowest-numbered identities with passes left, so the cache holds
    // the inputs of at most that many networks besides the chains and
    // weight planes. Each release queues the next rank's. With the
    // cache off nothing is shared, and every rank is queued at once.
    std::vector<size_t> rank(networks.size());
    size_t ranks = 0;
    for (size_t n = 0; n < networks.size(); n++)
        if (identity[n] == n && left[n] > 0)
            rank[n] = ranks++;
    queueRanks = [&](size_t lo, size_t hi) {
        auto within = [&](size_t n) {
            return rank[identity[n]] >= lo && rank[identity[n]] < hi;
        };
        if (!chained)
            for (const GridPrefetch &item : plan)
                if (item.kind == GridPrefetch::Kind::Stream &&
                    within(item.network))
                    submitPrefetch(item);
        for (size_t c = first; c < last; c++)
            if (!gated(c) && within(c / engines.size()))
                for (int i = 0; i < images; i++)
                    submitPass(c, i);
    };
    const size_t window =
        options.cache ? std::min(kNetworkWindow, ranks) : ranks;
    nextRank = window;
    // Queue order: the chains (the longest builds), the weight
    // planes, then the window's ungated streams and ungated passes,
    // with no join; each chain's streams and passes join the queue
    // when the chain is built, in the order the chains finish. So a
    // pass finds its inputs built or in flight instead of building
    // them alone while other passes wait on it, and no worker ever
    // blocks on a chain still being built. This cannot deadlock: a
    // chain or weight-plane task waits on nothing; a stream task or
    // pass waits at most on a stream, weight-plane or synthesizer
    // build that is running and itself waits on nothing, because
    // every chain it reads finished before it was queued; a pass's
    // submitFirst subtasks, run by it or by whichever worker helps
    // drain the queue, wait on nothing else; and every queued
    // identity's tasks are all queued, so its countdown reaches zero
    // and queues the next rank. The plan is empty with the cache off,
    // and then every pass is ungated.
    for (const GridPrefetch &item : plan) {
        if (item.kind == GridPrefetch::Kind::Chain)
            pool.submit([&prefetch, &afterChain, &done, item] {
                prefetch(item);
                afterChain(item);
                done(item.network);
            });
        else if (item.kind == GridPrefetch::Kind::Weights)
            submitPrefetch(item);
    }
    queueRanks(0, window);
    pool.wait();
}

std::vector<NetworkResult>
runSweep(const std::vector<dnn::Network> &networks,
         const std::vector<EngineSelection> &engines,
         const EngineRegistry &registry, const SweepOptions &options)
{
    PRA_CHECK(options.shardCount >= 1 && options.shardIndex >= 0 &&
                  options.shardIndex < options.shardCount,
              "runSweep: shard index out of range");
    // The shard's contiguous slice [first, last) of the grid-order
    // cells; the balanced-split endpoints make shards 0..N-1
    // partition the grid exactly, so concatenated shard outputs equal
    // the unsharded run. More shards than cells leaves some slices
    // empty; header-only CSV output is exactly what concatenation
    // expects from them.
    const size_t cells = networks.size() * engines.size();
    const auto index = static_cast<size_t>(options.shardIndex);
    const auto count = static_cast<size_t>(options.shardCount);
    const size_t first = cells * index / count;
    const size_t last = cells * (index + 1) / count;
    std::vector<NetworkResult> results(last - first);
    priceGrid(networks, engines, registry, options, options.batch, first,
              last, [&](size_t cell, std::vector<NetworkResult> images) {
                  // Accumulate the images in image order, then
                  // compose compute cycles with the memory hierarchy
                  // (no-op when --memory=off): pure per-layer
                  // arithmetic over the finished batch.
                  NetworkResult &result = results[cell - first];
                  result = std::move(images[0]);
                  for (size_t b = 1; b < images.size(); b++)
                      accumulateBatchImage(result, images[b]);
                  for (auto &layer : result.layers)
                      layer.batchImages = options.batch;
                  applyMemoryModel(networks[cell / engines.size()],
                                   options.accel, result);
              });
    return results;
}

const NetworkResult &
findResult(const std::vector<NetworkResult> &results,
           const std::string &network, const std::string &engine)
{
    for (const auto &result : results)
        if (result.networkName == network &&
            result.engineName == engine)
            return result;
    util::fatal("sweep: no result for (" + network + ", " + engine +
                ")");
}

void
writeSweepCsv(std::ostream &out,
              const std::vector<NetworkResult> &results, bool per_layer)
{
    // Memory columns appear only when some cell was produced with
    // memory modeling on, so the default (--memory=off) output stays
    // byte-identical to the committed goldens; the batch columns are
    // gated the same way on any cell actually being batched.
    bool memory = false;
    bool batched = false;
    for (const auto &result : results) {
        memory = memory || result.memoryModeled();
        batched = batched || result.batched();
    }

    util::CsvWriter csv(out);
    std::vector<std::string> header = {"network", "engine"};
    if (per_layer)
        header.push_back("layer");
    header.insert(header.end(),
                  {"cycles", "nm_stall_cycles", "effectual_terms",
                   "sb_read_steps"});
    if (batched)
        header.insert(header.end(), {"batch", "cycles_per_image"});
    if (memory)
        header.insert(header.end(),
                      {"on_chip_bytes", "off_chip_bytes",
                       "mem_stall_cycles", "system_cycles",
                       "bw_bound"});
    csv.writeHeader(header);
    for (const auto &result : results) {
        if (per_layer) {
            for (const auto &layer : result.layers) {
                std::vector<std::string> row = {
                    result.networkName, result.engineName,
                    layer.layerName, roundTrip(layer.cycles),
                    roundTrip(layer.nmStallCycles),
                    roundTrip(layer.effectualTerms),
                    roundTrip(layer.sbReadSteps)};
                if (batched) {
                    row.push_back(std::to_string(layer.batchImages));
                    row.push_back(roundTrip(layer.cyclesPerImage()));
                }
                if (memory) {
                    row.push_back(roundTrip(layer.onChipBytes));
                    row.push_back(roundTrip(layer.offChipBytes));
                    row.push_back(roundTrip(layer.memStallCycles));
                    row.push_back(roundTrip(layer.systemCycles()));
                    row.push_back(layer.bandwidthBound ? "1" : "0");
                }
                csv.writeRow(row);
            }
        } else {
            double terms = 0.0;
            double sb_reads = 0.0;
            int bw_bound = 0;
            for (const auto &layer : result.layers) {
                terms += layer.effectualTerms;
                sb_reads += layer.sbReadSteps;
                bw_bound += layer.bandwidthBound ? 1 : 0;
            }
            std::vector<std::string> row = {
                result.networkName, result.engineName,
                roundTrip(result.totalCycles()),
                roundTrip(result.totalStalls()), roundTrip(terms),
                roundTrip(sb_reads)};
            if (batched) {
                row.push_back(std::to_string(result.batchImages()));
                row.push_back(roundTrip(
                    result.totalCycles() /
                    static_cast<double>(result.batchImages())));
            }
            if (memory) {
                row.push_back(roundTrip(result.totalOnChipBytes()));
                row.push_back(roundTrip(result.totalOffChipBytes()));
                row.push_back(roundTrip(result.totalMemStalls()));
                row.push_back(roundTrip(result.totalSystemCycles()));
                // Network rows count their bandwidth-bound layers.
                row.push_back(std::to_string(bw_bound));
            }
            csv.writeRow(row);
        }
    }
}

} // namespace sim
} // namespace pra
