/**
 * @file
 * Tests for the batch dimension: per-image activation streams,
 * batch accumulation (the runBatch oracle), batch-aware memory
 * traffic, the batch columns of the sweep CSV, and grid sharding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/memory/memory_model.h"
#include "sim/sweep.h"
#include "sim/workload_cache.h"
#include "tests/sim/batch_oracle.h"

namespace pra {
namespace sim {
namespace {

std::vector<EngineSelection>
allKindsGrid()
{
    std::vector<EngineSelection> grid;
    for (const auto &kind : models::builtinEngines().kinds())
        grid.push_back({kind, {}});
    return grid;
}

SweepOptions
tinyOptions(int threads)
{
    SweepOptions options;
    options.threads = threads;
    options.sample.maxUnits = 2;
    return options;
}

void
expectSameResults(const std::vector<NetworkResult> &expected,
                  const std::vector<NetworkResult> &actual,
                  const std::string &what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (size_t i = 0; i < expected.size(); i++) {
        EXPECT_EQ(expected[i].networkName, actual[i].networkName)
            << what;
        EXPECT_EQ(expected[i].engineName, actual[i].engineName)
            << what;
        ASSERT_EQ(expected[i].layers.size(), actual[i].layers.size())
            << what;
        for (size_t l = 0; l < expected[i].layers.size(); l++) {
            const auto &a = expected[i].layers[l];
            const auto &b = actual[i].layers[l];
            EXPECT_EQ(a.cycles, b.cycles) << what;
            EXPECT_EQ(a.effectualTerms, b.effectualTerms) << what;
            EXPECT_EQ(a.nmStallCycles, b.nmStallCycles) << what;
            EXPECT_EQ(a.sbReadSteps, b.sbReadSteps) << what;
            EXPECT_EQ(a.batchImages, b.batchImages) << what;
            EXPECT_EQ(a.offChipBytes, b.offChipBytes) << what;
        }
    }
}

TEST(ImageStreamSalt, ImageZeroIsTheHistoricalStream)
{
    // Salt 0 for image 0 is what keeps every committed golden
    // byte-identical: the single-image seed path is unchanged.
    static_assert(dnn::imageStreamSalt(0) == 0);
    static_assert(dnn::imageStreamSalt(1) != 0);
    static_assert(dnn::imageStreamSalt(1) != dnn::imageStreamSalt(2));
}

TEST(ImageStreamSalt, ImagesSynthesizeDistinctDeterministicStreams)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    auto image0 = synth.synthesizeFixed16(0);
    auto image0_explicit = synth.synthesizeFixed16(0, 0);
    auto image1 = synth.synthesizeFixed16(0, 1);
    auto image1_again = synth.synthesizeFixed16(0, 1);

    ASSERT_EQ(image0.size(), image1.size());
    EXPECT_TRUE(std::equal(image0.flat().begin(), image0.flat().end(),
                           image0_explicit.flat().begin()));
    EXPECT_TRUE(std::equal(image1.flat().begin(), image1.flat().end(),
                           image1_again.flat().begin()));
    EXPECT_FALSE(std::equal(image0.flat().begin(), image0.flat().end(),
                            image1.flat().begin()));
}

TEST(WorkloadSource, WithImageRebindsAndKeepsIdentity)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    EXPECT_EQ(source.image(), 0);
    WorkloadSource other = source.withImage(3);
    EXPECT_EQ(other.image(), 3);
    EXPECT_EQ(source.image(), 0); // The original is untouched.
    EXPECT_EQ(other.withImage(0).image(), 0);
}

TEST(RunBatch, BatchOfOneMatchesRunNetwork)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    AccelConfig accel;
    SampleSpec sample{2};
    util::InnerExecutor exec;
    for (const auto &sel : allKindsGrid()) {
        auto engine = models::builtinEngines().create(sel);
        NetworkResult single =
            engine->runNetwork(net, source, accel, sample, exec);
        NetworkResult batch =
            runBatch(*engine, net, source, accel, sample, exec, 1);
        ASSERT_EQ(single.layers.size(), batch.layers.size())
            << sel.kind;
        EXPECT_EQ(batch.batchImages(), 1) << sel.kind;
        for (size_t l = 0; l < single.layers.size(); l++) {
            EXPECT_EQ(single.layers[l].cycles, batch.layers[l].cycles)
                << sel.kind;
            EXPECT_EQ(single.layers[l].effectualTerms,
                      batch.layers[l].effectualTerms)
                << sel.kind;
        }
    }
}

TEST(RunBatch, AccumulatesPerImageRunsForEveryEngineKind)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    AccelConfig accel;
    SampleSpec sample{2};
    util::InnerExecutor exec;
    const int batch = 3;
    for (const auto &sel : allKindsGrid()) {
        auto engine = models::builtinEngines().create(sel);
        NetworkResult total =
            runBatch(*engine, net, source, accel, sample, exec, batch);
        EXPECT_EQ(total.batchImages(), batch) << sel.kind;

        NetworkResult manual = engine->runNetwork(
            net, source.withImage(0), accel, sample, exec);
        for (int b = 1; b < batch; b++)
            accumulateBatchImage(
                manual, engine->runNetwork(net, source.withImage(b),
                                           accel, sample, exec));
        ASSERT_EQ(total.layers.size(), manual.layers.size())
            << sel.kind;
        for (size_t l = 0; l < total.layers.size(); l++) {
            EXPECT_EQ(total.layers[l].cycles, manual.layers[l].cycles)
                << sel.kind;
            EXPECT_EQ(total.layers[l].effectualTerms,
                      manual.layers[l].effectualTerms)
                << sel.kind;
            EXPECT_EQ(total.layers[l].nmStallCycles,
                      manual.layers[l].nmStallCycles)
                << sel.kind;
            EXPECT_EQ(total.layers[l].sbReadSteps,
                      manual.layers[l].sbReadSteps)
                << sel.kind;
            EXPECT_DOUBLE_EQ(
                total.layers[l].cyclesPerImage(),
                total.layers[l].cycles / static_cast<double>(batch))
                << sel.kind;
        }
    }
}

TEST(RunBatch, LaterImagesPriceDifferentStreams)
{
    // Value-dependent engines must see a genuinely different stream
    // per image; value-independent DaDN must not care.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    AccelConfig accel;
    SampleSpec sample{2};
    util::InnerExecutor exec;

    auto pra = models::builtinEngines().create("pragmatic",
                                               {{"bits", "2"}});
    NetworkResult pra0 = pra->runNetwork(net, source.withImage(0),
                                         accel, sample, exec);
    NetworkResult pra1 = pra->runNetwork(net, source.withImage(1),
                                         accel, sample, exec);
    double terms0 = 0.0, terms1 = 0.0;
    for (const auto &layer : pra0.layers)
        terms0 += layer.effectualTerms;
    for (const auto &layer : pra1.layers)
        terms1 += layer.effectualTerms;
    EXPECT_NE(terms0, terms1);

    auto dadn = models::builtinEngines().create("dadn");
    NetworkResult dadn0 = dadn->runNetwork(net, source.withImage(0),
                                           accel, sample, exec);
    NetworkResult dadn1 = dadn->runNetwork(net, source.withImage(1),
                                           accel, sample, exec);
    EXPECT_EQ(dadn0.totalCycles(), dadn1.totalCycles());
}

TEST(BatchTraffic, BatchOneReproducesHistoricalTrafficExactly)
{
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    auto net = dnn::makeVgg19(dnn::LayerSelect::All);
    for (const auto &layer : net.layers) {
        if (!layer.priced())
            continue;
        LayerTraffic historical =
            layerTraffic(layer, accel, accel.memory);
        LayerTraffic batch1 =
            layerTraffic(layer, accel, accel.memory, 1);
        EXPECT_EQ(historical.offChipBytes, batch1.offChipBytes)
            << layer.name;
        EXPECT_EQ(historical.onChipBytes, batch1.onChipBytes)
            << layer.name;
        EXPECT_EQ(historical.tileSteps, batch1.tileSteps)
            << layer.name;
    }
}

TEST(BatchTraffic, FcFilterBytesAmortizeAcrossTheBatch)
{
    // The paper-facing claim: a batch of 8 images streams the FC
    // filters from DRAM once, not 8 times, so the off-chip bytes of
    // the VGG-19 FC tail are *strictly* below 8x the single-image
    // run. Ifmap/ofmap traffic still scales with the batch.
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    auto net = dnn::makeVgg19(dnn::LayerSelect::Fc);
    ASSERT_FALSE(net.layers.empty());
    for (const auto &layer : net.layers) {
        LayerTraffic one = layerTraffic(layer, accel, accel.memory, 1);
        LayerTraffic eight =
            layerTraffic(layer, accel, accel.memory, 8);
        EXPECT_LT(eight.offChipBytes, 8.0 * one.offChipBytes)
            << layer.name;
        EXPECT_EQ(eight.filterBytes, one.filterBytes) << layer.name;
        EXPECT_EQ(eight.ifmapBytes, 8.0 * one.ifmapBytes)
            << layer.name;
        EXPECT_EQ(eight.ofmapBytes, 8.0 * one.ofmapBytes)
            << layer.name;
    }
}

TEST(BatchTraffic, SweepMemoryColumnsUseTheStampedBatch)
{
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    auto net = dnn::makeTinyNetwork();
    std::vector<dnn::Network> networks = {net};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    SweepOptions options = tinyOptions(1);
    options.accel = accel;
    options.batch = 8;
    auto results = runSweep(networks, grid, models::builtinEngines(),
                            options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].batchImages(), 8);
    double expected = 0.0;
    for (const auto &layer : net.layers)
        expected +=
            layerTraffic(layer, accel, accel.memory, 8).offChipBytes;
    EXPECT_DOUBLE_EQ(results[0].totalOffChipBytes(), expected);
}

TEST(BatchCsv, BatchColumnsOnlyAppearWhenBatched)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};

    // Explicit batch=1 is byte-identical to the defaulted options:
    // the historical column set, no batch columns.
    SweepOptions implicit = tinyOptions(1);
    SweepOptions explicit1 = tinyOptions(1);
    explicit1.batch = 1;
    std::ostringstream implicit_csv, explicit_csv;
    writeSweepCsv(implicit_csv,
                  runSweep(networks, grid, models::builtinEngines(),
                           implicit));
    writeSweepCsv(explicit_csv,
                  runSweep(networks, grid, models::builtinEngines(),
                           explicit1));
    EXPECT_EQ(implicit_csv.str(), explicit_csv.str());
    EXPECT_EQ(implicit_csv.str().find(",batch,"), std::string::npos);

    SweepOptions batched = tinyOptions(1);
    batched.batch = 2;
    std::ostringstream batched_csv;
    writeSweepCsv(batched_csv,
                  runSweep(networks, grid, models::builtinEngines(),
                           batched));
    std::istringstream lines(batched_csv.str());
    std::string header, row;
    std::getline(lines, header);
    std::getline(lines, row);
    EXPECT_NE(header.find(",batch,cycles_per_image"),
              std::string::npos);
    EXPECT_NE(row.find(",2,"), std::string::npos);
}

TEST(Shard, SlicesConcatenateToTheFullSweep)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork(),
                                          dnn::makeAlexNet()};
    auto grid = allKindsGrid();
    auto full = runSweep(networks, grid, models::builtinEngines(),
                         tinyOptions(1));

    // At 4 threads, shards that split a network release it on a
    // partial countdown: only the passes of that shard's cells.
    for (int threads : {1, 4})
        for (int shards : {2, 3, 5}) {
            std::vector<NetworkResult> concat;
            for (int i = 0; i < shards; i++) {
                SweepOptions options = tinyOptions(threads);
                options.shardIndex = i;
                options.shardCount = shards;
                auto slice = runSweep(networks, grid,
                                      models::builtinEngines(), options);
                concat.insert(concat.end(), slice.begin(), slice.end());
            }
            expectSameResults(full, concat,
                              "threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards));
        }
}

TEST(Shard, CsvBodiesConcatenateByteIdentically)
{
    // The tool-level contract the CI shard job pins: shard 0's CSV
    // plus the headerless bodies of shards 1..N-1 is byte-identical
    // to the unsharded dump.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    std::ostringstream full;
    writeSweepCsv(full, runSweep(networks, grid,
                                 models::builtinEngines(),
                                 tinyOptions(1)));
    std::string stitched;
    const int shards = 3;
    for (int i = 0; i < shards; i++) {
        SweepOptions options = tinyOptions(1);
        options.shardIndex = i;
        options.shardCount = shards;
        std::ostringstream csv;
        writeSweepCsv(csv, runSweep(networks, grid,
                                    models::builtinEngines(),
                                    options));
        std::string text = csv.str();
        if (i == 0)
            stitched += text;
        else
            stitched += text.substr(text.find('\n') + 1);
    }
    EXPECT_EQ(full.str(), stitched);
}

TEST(Shard, MoreShardsThanCellsYieldsEmptySlices)
{
    // A 1x2 grid split 5 ways: three shards are empty, and the
    // concatenation still reproduces the full sweep.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}},
                                         {"stripes", {}}};
    auto full = runSweep(networks, grid, models::builtinEngines(),
                         tinyOptions(1));
    std::vector<NetworkResult> concat;
    size_t empty_slices = 0;
    for (int i = 0; i < 5; i++) {
        SweepOptions options = tinyOptions(1);
        options.shardIndex = i;
        options.shardCount = 5;
        auto slice = runSweep(networks, grid,
                              models::builtinEngines(), options);
        if (slice.empty())
            empty_slices++;
        concat.insert(concat.end(), slice.begin(), slice.end());
    }
    EXPECT_EQ(empty_slices, 3u);
    expectSameResults(full, concat, "shards=5 cells=2");
}

TEST(BatchDeathTest, RejectsDegenerateBatchAndShard)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    SweepOptions bad_batch = tinyOptions(1);
    bad_batch.batch = 0;
    EXPECT_DEATH(runSweep(networks, grid, models::builtinEngines(),
                          bad_batch),
                 "batch");
    SweepOptions bad_shard = tinyOptions(1);
    bad_shard.shardIndex = 2;
    bad_shard.shardCount = 2;
    EXPECT_DEATH(runSweep(networks, grid, models::builtinEngines(),
                          bad_shard),
                 "shard");

    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    EXPECT_DEATH(source.withImage(-1), "non-negative");
    auto engine = models::builtinEngines().create("dadn");
    EXPECT_DEATH(runBatch(*engine, net, source, AccelConfig{},
                          SampleSpec{2}, util::InnerExecutor(), 0),
                 "batch");
}

} // namespace
} // namespace sim
} // namespace pra
