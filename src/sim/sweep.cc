#include "sim/sweep.h"

#include <algorithm>
#include <cstdio>
#include <memory>
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

namespace {

std::string
roundTrip(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/**
 * Blocks one cell may split a layer into. An explicit innerThreads
 * wins; automatic mode splits only when the grid alone cannot keep
 * every worker busy, handing each cell its share of the pool.
 */
int
resolveInnerTasks(const SweepOptions &options, size_t cells)
{
    int threads = std::max(1, options.threads);
    if (options.innerThreads > 0)
        return options.innerThreads;
    if (cells >= static_cast<size_t>(threads))
        return 1;
    return static_cast<int>(
        (threads + cells - 1) / static_cast<int>(cells));
}

/**
 * The shard's contiguous slice [first, last) of the grid-order cell
 * list; the balanced-split endpoints make shards 0..N-1 partition
 * the grid exactly, so concatenated shard outputs equal the
 * unsharded run.
 */
std::pair<size_t, size_t>
shardCells(size_t cells, const SweepOptions &options)
{
    const auto index = static_cast<size_t>(options.shardIndex);
    const auto count = static_cast<size_t>(options.shardCount);
    return {cells * index / count, cells * (index + 1) / count};
}

} // namespace

std::vector<SweepPrefetch>
planSweepPrefetch(const std::vector<dnn::Network> &networks,
                  const std::vector<EngineSelection> &engines,
                  const EngineRegistry &registry,
                  const SweepOptions &options)
{
    using Kind = SweepPrefetch::Kind;
    if (!options.cache)
        return {};
    const bool propagated =
        options.activations == ActivationMode::Propagated;
    const auto [first, last] =
        shardCells(networks.size() * engines.size(), options);
    std::vector<SweepPrefetch> chains;
    std::vector<SweepPrefetch> weights;
    std::vector<SweepPrefetch> streams;
    for (size_t n = 0; n < networks.size(); n++) {
        // What the network's cells in this shard read: the distinct
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
            reads_weights = reads_weights ||
                            engine->readsSharedWeights(options.accel);
        }
        if (propagated && !read.empty())
            for (int b = 0; b < options.batch; b++)
                chains.push_back({Kind::Chain, n, -1, InputStream::None, b});
        const std::vector<dnn::LayerSpec> &layers = networks[n].layers;
        for (size_t l = 0; l < layers.size(); l++)
            if (reads_weights && layers[l].priced())
                weights.push_back({Kind::Weights, n, static_cast<int>(l),
                                   InputStream::None, 0});
        // Image-major, then layer order: the order the cells'
        // runBatch consumes them in.
        for (int b = 0; b < options.batch; b++)
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

std::vector<NetworkResult>
runSweep(const std::vector<dnn::Network> &networks,
         const std::vector<EngineSelection> &engines,
         const EngineRegistry &registry, const SweepOptions &options)
{
    PRA_CHECK(!networks.empty() && !engines.empty(),
                         "runSweep: empty grid");
    PRA_CHECK(options.batch >= 1, "runSweep: batch must be >= 1");
    PRA_CHECK(options.shardCount >= 1 && options.shardIndex >= 0 &&
                  options.shardIndex < options.shardCount,
              "runSweep: shard index out of range");
    // Validate every selection up front so knob errors surface before
    // any worker starts.
    for (const auto &sel : engines)
        registry.create(sel);

    const auto [shard_first, shard_last] =
        shardCells(networks.size() * engines.size(), options);
    std::vector<NetworkResult> results(shard_last - shard_first);
    // More shards than cells leaves some shards empty; header-only
    // CSV output is exactly what concatenation expects from them.
    if (results.empty())
        return results;

    WorkloadCache cache;
    WorkloadCache *shared = options.cache ? &cache : nullptr;

    auto runCell = [&](size_t net_idx, size_t eng_idx,
                       const util::InnerExecutor &exec) {
        // Each job builds its own engine; the workload source is
        // either private (cache off: streams rebuilt per cell) or
        // backed by the sweep-wide cache. Streams depend only on
        // (network, seed), so both modes and any schedule yield
        // identical results.
        const dnn::Network &network = networks[net_idx];
        std::unique_ptr<Engine> engine =
            registry.create(engines[eng_idx]);
        std::shared_ptr<const dnn::ActivationSynthesizer> synth =
            shared ? shared->synthesizer(network, options.seed)
                   : std::make_shared<const dnn::ActivationSynthesizer>(
                         network, options.seed);
        WorkloadSource source =
            shared ? WorkloadSource(*synth, *shared,
                                    options.activations)
                   : WorkloadSource(*synth, options.activations);
        NetworkResult &cell =
            results[net_idx * engines.size() + eng_idx - shard_first];
        cell = engine->runBatch(network, source, options.accel,
                                options.sample, exec, options.batch);
        // Compose compute cycles with the memory hierarchy (no-op
        // when --memory=off). Pure per-layer arithmetic over the
        // finished result, so any schedule stays bit-identical.
        applyMemoryModel(network, options.accel, cell);
    };

    // Builds one shared input into the cache, the synthesizer
    // included, so nothing of it runs on the calling thread.
    auto prefetch = [&](const SweepPrefetch &item) {
        std::shared_ptr<const dnn::ActivationSynthesizer> synth =
            cache.synthesizer(networks[item.network], options.seed);
        switch (item.kind) {
          case SweepPrefetch::Kind::Chain:
            cache.chain(*synth, item.image);
            break;
          case SweepPrefetch::Kind::Weights:
            cache.weights(*synth, item.layer, options.activations);
            break;
          case SweepPrefetch::Kind::Stream:
            cache.layer(*synth, item.layer, item.stream,
                        options.activations, item.image);
            break;
        }
    };

    auto inShard = [&](size_t n, size_t e) {
        size_t cell = n * engines.size() + e;
        return cell >= shard_first && cell < shard_last;
    };

    const int inner = resolveInnerTasks(options, results.size());
    if (options.threads <= 1 && inner <= 1) {
        for (size_t n = 0; n < networks.size(); n++)
            for (size_t e = 0; e < engines.size(); e++)
                if (inShard(n, e))
                    runCell(n, e, util::InnerExecutor());
    } else {
        util::ThreadPool pool(options.threads);
        util::InnerExecutor exec(&pool, inner);
        // The shared inputs go first, one task each, and the cells
        // queue right behind them with no join, so a cell finds its
        // inputs built or in flight instead of building them alone
        // while other cells wait on it. This cannot deadlock:
        // prefetch tasks never wait on pool jobs (a stream task may
        // wait on its chain, whose build waits on nothing); the FIFO
        // queue starts every prefetch task before any cell, and
        // submitFirst subtasks come only from running cells; so a
        // cell blocked on the cache always waits on a running
        // builder. The plan is empty with the cache off.
        for (const SweepPrefetch &item :
             planSweepPrefetch(networks, engines, registry, options))
            pool.submit([&prefetch, item] { prefetch(item); });
        for (size_t n = 0; n < networks.size(); n++)
            for (size_t e = 0; e < engines.size(); e++)
                if (inShard(n, e))
                    pool.submit([&runCell, &exec, n, e] {
                        runCell(n, e, exec);
                    });
        pool.wait();
    }
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
