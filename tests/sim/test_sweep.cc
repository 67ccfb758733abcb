/**
 * @file
 * Tests for the engine registry and the parallel sweep driver.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/analytic/term_count.h"
#include "models/engines.h"
#include "sim/memory/memory_config.h"
#include "sim/operand_planes.h"
#include "sim/serving/serving_sim.h"
#include "sim/sweep.h"
#include "tests/models/term_count_oracle.h"

namespace pra {
namespace sim {
namespace {

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
            EXPECT_EQ(a.layerName, b.layerName) << what;
            EXPECT_EQ(a.cycles, b.cycles) << what;
            EXPECT_EQ(a.effectualTerms, b.effectualTerms) << what;
            EXPECT_EQ(a.nmStallCycles, b.nmStallCycles) << what;
            EXPECT_EQ(a.sbReadSteps, b.sbReadSteps) << what;
            EXPECT_EQ(a.sampleScale, b.sampleScale) << what;
        }
    }
}

std::vector<EngineSelection>
allKindsGrid()
{
    // The frozen historical five-kind "--engines=all" expansion (the
    // committed smoke goldens pin it), not every registered kind.
    return models::coreEngineGrid();
}

TEST(EngineRegistry, ExposesAllRegisteredEngines)
{
    const auto &registry = models::builtinEngines();
    EXPECT_EQ(registry.size(), 7u);
    for (const char *kind :
         {"dadn", "stripes", "dynamic_stripes", "pragmatic",
          "pragmatic-col", "laconic", "terms"}) {
        EXPECT_TRUE(registry.has(kind)) << kind;
        auto engine = registry.create(kind);
        ASSERT_NE(engine, nullptr);
        EXPECT_FALSE(engine->name().empty());
    }
}

TEST(EngineRegistry, KnobsSelectVariants)
{
    const auto &registry = models::builtinEngines();
    EXPECT_EQ(registry.create("pragmatic", {{"bits", "4"}})->name(),
              "PRA-4b");
    EXPECT_EQ(registry
                  .create("pragmatic-col",
                          {{"bits", "2"}, {"ssr", "1"}})
                  ->name(),
              "PRA-2b-1R");
    EXPECT_EQ(registry.create("terms", {{"series", "zn"}})->name(),
              "terms-zn");
}

TEST(EngineRegistry, ParseEngineSpec)
{
    EngineSelection sel =
        parseEngineSpec("pragmatic-col:bits=2:ssr=4");
    EXPECT_EQ(sel.kind, "pragmatic-col");
    ASSERT_EQ(sel.knobs.size(), 2u);
    EXPECT_EQ(sel.knobs.at("bits"), "2");
    EXPECT_EQ(sel.knobs.at("ssr"), "4");

    EngineSelection bare = parseEngineSpec("dadn");
    EXPECT_EQ(bare.kind, "dadn");
    EXPECT_TRUE(bare.knobs.empty());
}

TEST(EngineRegistryDeathTest, RejectsUnknownKindAndKnob)
{
    const auto &registry = models::builtinEngines();
    EXPECT_DEATH(registry.create("warp-drive"), "unknown engine");
    EXPECT_DEATH(registry.create("dadn", {{"bogus", "1"}}),
                 "unknown knob");
    EXPECT_DEATH(registry.create("stripes", {{"precision", "8"}}),
                 "unknown knob");
    // A repeated knob is an error, not a silent last-one-wins.
    EXPECT_EXIT(parseEngineSpec("pragmatic:bits=2:bits=3"),
                ::testing::ExitedWithCode(1),
                "engine knob 'bits' repeated in 'pragmatic:bits=2:bits=3'");
}

TEST(EngineRegistry, ParseEngineListExpandsGridsAndSpecs)
{
    EXPECT_EQ(models::parseEngineList("paper").size(),
              models::paperEngineGrid().size());
    EXPECT_EQ(models::parseEngineList("all").size(),
              models::coreEngineGrid().size());
    auto grid = models::parseEngineList("dadn,,pragmatic:bits=2");
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].kind, "dadn");
    EXPECT_EQ(grid[1].kind, "pragmatic");
    EXPECT_EQ(grid[1].knobs.at("bits"), "2");
}

TEST(EngineRegistryDeathTest, ParseEngineListRejectsEmptyAndUnknownLists)
{
    EXPECT_EXIT(models::parseEngineList(""), ::testing::ExitedWithCode(1),
                "no engines selected");
    EXPECT_EXIT(models::parseEngineList(","),
                ::testing::ExitedWithCode(1), "no engines selected");
    EXPECT_EXIT(models::parseEngineList("dadn,warp-drive"),
                ::testing::ExitedWithCode(1), "unknown engine 'warp-drive'");
}

TEST(EngineContract, EveryKindPricesOneWay)
{
    // Every registered kind: runNetwork prices the same over a cached
    // and an uncached source, and equals a per-layer simulateLayer
    // loop on freshly synthesized workloads, each result labelled
    // with its layer's name. Every kind's weight-read declaration is
    // checked too.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    SampleSpec sample{4};
    const AccelConfig accel;
    const EngineRegistry &registry = models::builtinEngines();
    ASSERT_EQ(registry.kinds().size(), 7u);
    for (const std::string &kind : registry.kinds()) {
        SCOPED_TRACE(kind);
        auto engine = registry.create(kind);
        WorkloadCache cache;
        auto synth = cache.synthesizer(net, 0x5eed);
        NetworkResult uncached =
            engine->runNetwork(net, WorkloadSource(*synth), accel, sample,
                               util::InnerExecutor());
        NetworkResult cached = engine->runNetwork(
            net, WorkloadSource(*synth, cache), accel, sample,
            util::InnerExecutor());
        expectSameResults({uncached}, {cached}, "cached source");

        // The layer loop prices workloads whose weight builder counts
        // its calls: an engine must read the shared weight planes on
        // exactly the layers where it declares the read (a sweep
        // builds them ahead of the cells on its word).
        // Likewise, the cycle planes it builds are exactly the
        // widths it declares.
        const bool declared = engine->readsSharedWeights();
        NetworkResult loop;
        loop.networkName = net.name;
        loop.engineName = engine->name();
        for (size_t i = 0; i < net.layers.size(); i++) {
            if (!net.layers[i].priced())
                continue;
            int weight_builds = 0;
            const LayerWorkload workload(
                synthesizeStream(*synth, static_cast<int>(i),
                                 engine->inputStream()),
                [&weight_builds](const dnn::LayerSpec &layer) {
                    weight_builds++;
                    return std::make_shared<const WeightBrickPlanes>(
                        syntheticWeightPlanes(layer));
                });
            loop.layers.push_back(engine->simulateLayer(
                net.layers[i], workload, accel, sample,
                util::InnerExecutor()));
            // The one per-layer label a result carries.
            EXPECT_EQ(loop.layers.back().layerName, net.layers[i].name);
            EXPECT_EQ(weight_builds > 0, declared) << net.layers[i].name;
            EXPECT_EQ(workload.cyclePlanesBuilt(), engine->cycleWidths())
                << net.layers[i].name;
        }
        expectSameResults({uncached}, {loop}, "layer loop");
    }
}

TEST(EngineContract, PragmaticDeclaresTheCycleWidthItReads)
{
    // Both Pragmatic kinds at every first-stage width: the memoized
    // cycle plane of L = 1..3 is read (and so built) exactly when the
    // engine declares it, and L = 0 and 4 read none.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    for (const char *kind : {"pragmatic", "pragmatic-col"}) {
        for (int bits = 0; bits <= 4; bits++) {
            SCOPED_TRACE(std::string(kind) + " bits=" +
                         std::to_string(bits));
            auto engine = models::builtinEngines().create(
                kind, {{"bits", std::to_string(bits)}});
            EXPECT_EQ(engine->cycleWidths(),
                      bits >= 1 && bits <= 3 ? models::scheduleWidth(bits)
                                             : 0u);
            const LayerWorkload workload(
                synthesizeStream(synth, 0, engine->inputStream()));
            engine->simulateLayer(net.layers[0], workload, AccelConfig{},
                                  SampleSpec{4}, util::InnerExecutor());
            EXPECT_EQ(workload.cyclePlanesBuilt(), engine->cycleWidths());
        }
    }
}

TEST(EngineAdapters, TermsSeriesMatchTensorCounts)
{
    // Each terms series prices the one stream it reads (the trimmed
    // one for pra-red, the raw one otherwise) from its brick planes.
    // Layer by layer it must equal the element walk over both
    // synthesized streams, bit for bit, image-input rule included:
    // Tiny's conv1 reads the image, AlexNet's FC tail does not.
    const std::pair<const char *, double models::LayerTermCounts::*>
        series[] = {{"dadn", &models::LayerTermCounts::dadn},
                    {"zn", &models::LayerTermCounts::zn},
                    {"cvn", &models::LayerTermCounts::cvn},
                    {"stripes", &models::LayerTermCounts::stripes},
                    {"pra", &models::LayerTermCounts::praRaw},
                    {"pra-red", &models::LayerTermCounts::praTrimmed}};
    SampleSpec sample{4};
    for (const dnn::Network &net :
         {dnn::makeTinyNetwork(dnn::LayerSelect::All),
          dnn::makeAlexNet(dnn::LayerSelect::Fc)}) {
        dnn::ActivationSynthesizer synth(net);
        for (const auto &[label, field] : series) {
            SCOPED_TRACE(net.name + " terms:series=" + label);
            auto engine = models::builtinEngines().create(
                "terms", {{"series", label}});
            NetworkResult via_engine = engine->runNetwork(
                net, WorkloadSource(synth), AccelConfig{}, sample,
                util::InnerExecutor());
            size_t priced = 0;
            for (size_t i = 0; i < net.layers.size(); i++) {
                const dnn::LayerSpec &layer = net.layers[i];
                if (!layer.priced())
                    continue;
                const int idx = static_cast<int>(i);
                auto counts = models::walkLayerTerms16(
                    layer, synth.synthesizeFixed16(idx),
                    synth.synthesizeFixed16Trimmed(idx),
                    layer.readsImage(idx), sample);
                ASSERT_LT(priced, via_engine.layers.size());
                EXPECT_EQ(via_engine.layers[priced++].cycles,
                          counts.*field)
                    << layer.name;
            }
            EXPECT_EQ(priced, via_engine.layers.size());
        }
    }
}

TEST(Sweep, ParallelBitIdenticalToSequential)
{
    // Two zoo networks, every engine kind: a 4-thread sweep must be
    // bit-identical to the single-threaded one, field by field.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork(),
                                          dnn::makeAlexNet()};
    auto grid = allKindsGrid();
    auto seq = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(1));
    auto par = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(4));
    expectSameResults(seq, par, "threads=4");
}

TEST(Sweep, CacheOnAndOffBitIdentical)
{
    // The workload cache only shares synthesis and, across the images
    // of a batch, one weight-plane object per layer (which laconic
    // prices); with it off every workload builds its own. Results and
    // the per-layer CSV must be byte-identical with it on or off,
    // sequential and parallel.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    grid.push_back({"laconic", {}});
    ASSERT_TRUE(tinyOptions(1).cache); // Shared workloads are the default.
    for (int batch : {1, 4}) {
        const std::string at = " batch=" + std::to_string(batch);
        auto run = [&](int threads, bool cache) {
            SweepOptions options = tinyOptions(threads);
            options.batch = batch;
            options.cache = cache;
            return runSweep(networks, grid, models::builtinEngines(),
                            options);
        };
        auto csvOf = [](const std::vector<NetworkResult> &results) {
            std::ostringstream csv;
            writeSweepCsv(csv, results, /*per_layer=*/true);
            return csv.str();
        };
        auto with = run(1, true);
        for (auto [threads, cache] :
             {std::pair{1, false}, std::pair{4, false},
              std::pair{4, true}}) {
            const std::string what = "cache=" +
                                     std::string(cache ? "on" : "off") +
                                     " threads=" +
                                     std::to_string(threads) + at;
            auto other = run(threads, cache);
            expectSameResults(with, other, what);
            EXPECT_EQ(csvOf(with), csvOf(other)) << what;
        }
    }
}

std::string
perLayerCsv(const std::vector<NetworkResult> &results)
{
    std::ostringstream csv;
    writeSweepCsv(csv, results, /*per_layer=*/true);
    return csv.str();
}

TEST(Sweep, PrefetchedCsvByteIdenticalAcrossThreadMatrix)
{
    // A threaded cached sweep builds its shared inputs as pool tasks
    // ahead of the cells; no schedule may change a byte. Batched
    // synthetic streams with laconic's weight planes and the memory
    // model, and batched propagated chains, each against the serial
    // CSV at every (threads, cache) point. The last thread count
    // exceeds the case's (cell, image) passes, so passes also split
    // their layers.
    std::vector<EngineSelection> grid = allKindsGrid();
    grid.push_back({"laconic", {}});
    grid.push_back({"terms", {{"series", "pra"}}});
    SweepOptions synthetic = tinyOptions(1);
    synthetic.batch = 3;
    synthetic.accel.memory = parseMemoryPreset("dadn");
    SweepOptions propagated = tinyOptions(1);
    propagated.batch = 2;
    propagated.activations = ActivationMode::Propagated;
    const std::vector<std::pair<std::string, SweepOptions>> cases = {
        {"synthetic", synthetic}, {"propagated", propagated}};
    for (const auto &[mode, base] : cases) {
        std::vector<dnn::Network> networks = {dnn::makeTinyNetwork(
            base.activations == ActivationMode::Propagated
                ? dnn::LayerSelect::All
                : dnn::LayerSelect::Conv)};
        const std::string serial = perLayerCsv(
            runSweep(networks, grid, models::builtinEngines(), base));
        const int passes = static_cast<int>(grid.size()) * base.batch;
        for (int threads : {1, 2, 3, 8, passes + 1})
            for (bool cache : {true, false}) {
                SweepOptions options = base;
                options.threads = threads;
                options.cache = cache;
                EXPECT_EQ(serial,
                          perLayerCsv(runSweep(networks, grid,
                                               models::builtinEngines(),
                                               options)))
                    << mode << " threads=" << threads
                    << " cache=" << (cache ? "on" : "off");
            }
    }
}

TEST(Sweep, ReleasingEachNetworkNeverShowsInTheCsv)
{
    // Each network's cache entries go after its last pass, and a
    // threaded grid queues the streams and passes of two networks at
    // a time: neither may change a byte against the serial uncached
    // CSV. Two networks run the full (threads, cache, batch) matrix
    // with laconic's weight planes and a quant8 Pragmatic's third
    // stream beside the trimmed readers. Two three-network grids run
    // the cached points without laconic, whose FC weight planes would
    // dominate the test's time: one holds Tiny twice around another
    // network (one countdown across it), the other two selections of
    // AlexNet (two countdowns); both queue a third network's work
    // from a release.
    const std::vector<EngineSelection> streams = {
        {"dadn", {}},
        {"pragmatic", {}},
        {"pragmatic", {{"repr", "quant8"}}}};
    std::vector<EngineSelection> weighted = streams;
    weighted.push_back({"laconic", {}});
    struct Case
    {
        std::string what;
        std::vector<dnn::Network> networks;
        std::vector<EngineSelection> grid;
        std::vector<bool> caches;
    };
    const std::vector<Case> cases = {
        {"tiny+alexnet",
         {dnn::makeTinyNetwork(), dnn::makeAlexNet()},
         weighted,
         {true, false}},
        {"tiny+alexnet fc+tiny",
         {dnn::makeTinyNetwork(), dnn::makeAlexNet(dnn::LayerSelect::Fc),
          dnn::makeTinyNetwork()},
         streams,
         {true}},
        {"alexnet conv+alexnet fc+tiny",
         {dnn::makeAlexNet(), dnn::makeAlexNet(dnn::LayerSelect::Fc),
          dnn::makeTinyNetwork()},
         streams,
         {true}}};
    for (const Case &c : cases)
        for (int batch : {1, 3}) {
            SweepOptions base;
            base.sample.maxUnits = 4;
            base.batch = batch;
            base.cache = false;
            const std::string serial = perLayerCsv(runSweep(
                c.networks, c.grid, models::builtinEngines(), base));
            for (int threads : {1, 4, 24})
                for (bool cache : c.caches) {
                    SweepOptions options = base;
                    options.threads = threads;
                    options.cache = cache;
                    EXPECT_EQ(serial, perLayerCsv(runSweep(
                                          c.networks, c.grid,
                                          models::builtinEngines(),
                                          options)))
                        << c.what << " batch=" << batch
                        << " threads=" << threads
                        << " cache=" << (cache ? "on" : "off");
                }
        }
}

TEST(Sweep, PrefetchPlanNamesWhatTheCellsRead)
{
    // Propagated {dadn, laconic, pragmatic-raw}: one chain per image,
    // laconic's weight planes per priced layer, and one raw stream
    // per (layer, image) — laconic's trimmed view is the raw entry
    // and dadn reads none. Chains come first, then weights, then
    // streams; the cache off plans nothing. The sweep-shaped plan
    // (batch 2) and the serving-shaped one (the whole grid over
    // maxBatch 3 images) come from the same planner.
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    std::vector<EngineSelection> grid = {
        {"dadn", {}},
        {"laconic", {}},
        {"pragmatic", {{"trim", "0"}}}};
    SweepOptions sweep = tinyOptions(4);
    sweep.batch = 2;
    sweep.activations = ActivationMode::Propagated;
    ServingSweepOptions serve;
    serve.threads = 4;
    serve.sample.maxUnits = 2;
    serve.activations = ActivationMode::Propagated;
    serve.serving.policy.maxBatch = 3;
    size_t priced = 0;
    for (const auto &layer : networks[0].layers)
        priced += layer.priced() ? 1 : 0;
    ASSERT_GT(priced, 0u);

    using Kind = GridPrefetch::Kind;
    const std::vector<std::pair<GridOptions, int>> shapes = {
        {sweep, sweep.batch}, {serve, serve.serving.policy.maxBatch}};
    for (auto [options, images] : shapes) {
        const auto n = static_cast<size_t>(images);
        auto plan = [&](const GridOptions &at) {
            return planGridPrefetch(networks, grid,
                                    models::builtinEngines(), at, images,
                                    0, grid.size());
        };
        auto items = plan(options);
        ASSERT_EQ(items.size(), n + priced + n * priced) << images;
        for (size_t i = 0; i < items.size(); i++) {
            Kind expected = Kind::Stream;
            if (i < n)
                expected = Kind::Chain;
            else if (i < n + priced)
                expected = Kind::Weights;
            EXPECT_EQ(items[i].kind, expected) << i;
            EXPECT_EQ(items[i].network, 0u);
            if (i < n) {
                EXPECT_EQ(items[i].image, static_cast<int>(i));
            }
            if (items[i].kind == Kind::Stream) {
                EXPECT_EQ(items[i].stream, InputStream::Fixed16Raw);
                // Image-major, then layer order.
                EXPECT_EQ(items[i].image,
                          static_cast<int>((i - n - priced) / priced));
            }
            if (items[i].kind != Kind::Chain) {
                EXPECT_TRUE(networks[0]
                                .layers[static_cast<size_t>(
                                    items[i].layer)]
                                .priced());
            }
        }

        options.cache = false;
        EXPECT_TRUE(plan(options).empty()) << images;
    }
}

TEST(Sweep, ShardSlicesStitchAtFourThreadsAndPrefetchTheirOwnInputs)
{
    // 2 networks x 3 engines in 3 shards: shard 0 is Tiny's
    // pragmatic and dadn cells, shard 1 Tiny's laconic and AlexNet's
    // pragmatic, shard 2 AlexNet's dadn and laconic. The 4-thread
    // slices concatenate to the unsharded CSV, and each shard plans
    // only the inputs its own cells read: a one-network shard names
    // only that network, and weight planes only where laconic runs.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork(),
                                          dnn::makeAlexNet()};
    std::vector<EngineSelection> grid = {
        {"pragmatic", {}}, {"dadn", {}}, {"laconic", {}}};
    const std::string whole = perLayerCsv(runSweep(
        networks, grid, models::builtinEngines(), tinyOptions(1)));

    const std::vector<std::set<size_t>> expected_networks = {
        {0}, {0, 1}, {1}};
    const std::vector<std::set<size_t>> expected_weights = {{}, {0}, {1}};
    std::string stitched;
    for (int shard = 0; shard < 3; shard++) {
        SweepOptions options = tinyOptions(4);
        options.shardIndex = shard;
        options.shardCount = 3;
        std::string csv = perLayerCsv(runSweep(
            networks, grid, models::builtinEngines(), options));
        stitched += shard == 0 ? csv : csv.substr(csv.find('\n') + 1);

        const auto at = static_cast<size_t>(shard);
        std::set<size_t> planned;
        std::set<size_t> weights;
        const size_t first = 2 * at;
        for (const auto &item : planGridPrefetch(
                 networks, grid, models::builtinEngines(), options,
                 options.batch, first, first + 2)) {
            planned.insert(item.network);
            if (item.kind == GridPrefetch::Kind::Weights)
                weights.insert(item.network);
        }
        EXPECT_EQ(planned, expected_networks[at]) << "shard " << shard;
        EXPECT_EQ(weights, expected_weights[at]) << "shard " << shard;
    }
    EXPECT_EQ(whole, stitched);
}

TEST(Sweep, CyclePlanesOffByteIdenticalCsv)
{
    // The schedule-cycle planes are an exact memoization: with them
    // force-disabled every intermediate-L brick falls back to the
    // bounds short-circuit + serial schedule, and the emitted CSV
    // must stay byte-identical. The grids: both Pragmatic engines at
    // every width the planes memoize plus the L=0/4 edges they do
    // not, and the grids CI sweeps at --smoke caps — the core
    // "--engines=all" grid with the cache on and off, the
    // dynamic_stripes/laconic knob grid on four threads, and the
    // column-sync L-sweep — and the paper grid on four threads with
    // the cache on, whose cells share each workload's fused L = 1..3
    // plane build.
    struct Case
    {
        std::string name;
        std::vector<EngineSelection> grid;
        SweepOptions options;
    };
    std::vector<EngineSelection> widths;
    for (int l = 0; l <= 4; l++) {
        widths.push_back({"pragmatic", {{"bits", std::to_string(l)}}});
        widths.push_back(
            {"pragmatic-col", {{"bits", std::to_string(l)}}});
    }
    SweepOptions smoke = tinyOptions(1);
    smoke.sample.maxUnits = 4;
    SweepOptions smoke_uncached = smoke;
    smoke_uncached.cache = false;
    SweepOptions smoke_threaded = smoke;
    smoke_threaded.threads = 4;
    const std::vector<Case> cases = {
        {"widths", widths, tinyOptions(1)},
        {"core cache=on", models::parseEngineList("all"), smoke},
        {"core cache=off", models::parseEngineList("all"),
         smoke_uncached},
        {"ds grid threads=4",
         models::parseEngineList(
             "dynamic_stripes,dynamic_stripes:granularity=4:column-"
             "regs=2,dynamic_stripes:leading-bit=1,dynamic_stripes:"
             "diffy=1,dynamic_stripes:granularity=layer,laconic"),
         smoke_threaded},
        {"col L-sweep",
         models::parseEngineList(
             "pragmatic-col:bits=0,pragmatic-col:bits=1,pragmatic-col:"
             "bits=2,pragmatic-col:bits=3,pragmatic-col:bits=4"),
         smoke},
        {"paper cache=on threads=4", models::parseEngineList("paper"),
         smoke_threaded},
    };
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    ASSERT_TRUE(cyclePlanesEnabled()); // Planes are the default.
    for (const Case &c : cases) {
        auto with = runSweep(networks, c.grid, models::builtinEngines(),
                             c.options);
        setCyclePlanesEnabled(false);
        auto without = runSweep(networks, c.grid,
                                models::builtinEngines(), c.options);
        setCyclePlanesEnabled(true);
        expectSameResults(with, without, c.name + " planes=off");
        EXPECT_EQ(perLayerCsv(with), perLayerCsv(without)) << c.name;
    }
}

TEST(Sweep, PropagatedModeDeterministicAcrossThreadsAndCache)
{
    // Propagated-mode invariants: the forward-pass workloads must be
    // bit-identical whether the chain is built once in the shared
    // cache, rebuilt per cell with the cache off, or raced by four
    // workers. The network must be the full pipeline (pools + fc).
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    auto grid = allKindsGrid();
    SweepOptions base = tinyOptions(1);
    base.activations = ActivationMode::Propagated;
    auto seq = runSweep(networks, grid, models::builtinEngines(),
                        base);

    SweepOptions par = base;
    par.threads = 4;
    expectSameResults(seq,
                      runSweep(networks, grid,
                               models::builtinEngines(), par),
                      "propagated threads=4");

    SweepOptions uncached = base;
    uncached.cache = false;
    expectSameResults(seq,
                      runSweep(networks, grid,
                               models::builtinEngines(), uncached),
                      "propagated cache=off");

    // More threads than the five passes: each pass splits its layers.
    SweepOptions split = base;
    split.threads = 8;
    expectSameResults(seq,
                      runSweep(networks, grid,
                               models::builtinEngines(), split),
                      "propagated threads=8");
}

TEST(Sweep, PropagatedCsvByteIdenticalAcrossThreadsCacheAndBatch)
{
    // With the cache on, each chain queues its own streams and the
    // passes that read them when it is built, so gated passes start
    // in whatever order the chains finish, while ungated dadn passes
    // and laconic's weight planes queue up front. Two copies of the
    // tiny pipeline under different names make two chains per image
    // that race each other; 16 threads is more than the batch-1
    // case's 14 passes, so those passes also split their layers. No
    // schedule may change a byte of the per-layer CSV.
    dnn::Network twin = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    twin.name = "TinyTwin";
    const std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All), twin};
    const std::vector<EngineSelection> grid = allKindsGrid();
    for (int batch : {1, 3}) {
        SweepOptions base = tinyOptions(1);
        base.activations = ActivationMode::Propagated;
        base.batch = batch;
        const std::string serial = perLayerCsv(
            runSweep(networks, grid, models::builtinEngines(), base));
        for (int threads : {1, 2, 3, 16})
            for (bool cache : {true, false}) {
                SweepOptions options = base;
                options.threads = threads;
                options.cache = cache;
                EXPECT_EQ(serial,
                          perLayerCsv(runSweep(networks, grid,
                                               models::builtinEngines(),
                                               options)))
                    << "batch=" << batch << " threads=" << threads
                    << " cache=" << (cache ? "on" : "off");
            }
    }
}

TEST(Sweep, PropagatedModeDiffersFromSyntheticDownstream)
{
    // The two modes share only the image input: layer 0 results
    // agree for value-dependent engines, downstream layers see
    // different (correlated) streams. DaDN is value-independent and
    // must agree everywhere.
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    std::vector<EngineSelection> grid = {
        {"dadn", {}},
        {"pragmatic", {{"bits", "2"}, {"trim", "0"}}},
    };
    SweepOptions synthetic = tinyOptions(1);
    SweepOptions propagated = tinyOptions(1);
    propagated.activations = ActivationMode::Propagated;
    auto s = runSweep(networks, grid, models::builtinEngines(),
                      synthetic);
    auto p = runSweep(networks, grid, models::builtinEngines(),
                      propagated);
    // DaDN: identical rows (geometry only).
    ASSERT_EQ(s[0].layers.size(), p[0].layers.size());
    for (size_t l = 0; l < s[0].layers.size(); l++)
        EXPECT_EQ(s[0].layers[l].cycles, p[0].layers[l].cycles);
    // PRA (untrimmed raw stream): layer 0 is the shared image.
    EXPECT_EQ(s[1].layers[0].cycles, p[1].layers[0].cycles);
    EXPECT_EQ(s[1].layers[0].effectualTerms,
              p[1].layers[0].effectualTerms);
    // Downstream, the propagated stream is the real conv1 output —
    // not the independently synthesized conv2 stream.
    EXPECT_NE(s[1].layers[1].effectualTerms,
              p[1].layers[1].effectualTerms);
}

TEST(Sweep, InvariantAcrossLayerSplits)
{
    // Pallet-block splitting inside a cell must not change a bit:
    // compare the serial sweep against a two-cell grid on more
    // workers than cells, which splits every layer into
    // ceil(threads / 2) blocks.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {
        {"pragmatic", {{"bits", "2"}}},
        {"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}}}};
    auto base = runSweep(networks, grid, models::builtinEngines(),
                         tinyOptions(1));
    for (int threads : {3, 4, 10}) {
        auto result = runSweep(networks, grid, models::builtinEngines(),
                               tinyOptions(threads));
        expectSameResults(base, result,
                          "threads=" + std::to_string(threads));
    }
}

TEST(Sweep, CsvDeterministicallyOrdered)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {
        {"stripes", {}}, {"dadn", {}}, {"pragmatic", {{"bits", "2"}}}};

    auto seq = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(1));
    auto par = runSweep(networks, grid, models::builtinEngines(),
                        tinyOptions(4));
    std::ostringstream csv_seq, csv_par;
    writeSweepCsv(csv_seq, seq);
    writeSweepCsv(csv_par, par);
    // Byte-identical dumps regardless of completion order...
    EXPECT_EQ(csv_seq.str(), csv_par.str());

    // ...and rows follow grid order, not alphabetical or completion
    // order: stripes, dadn, pragmatic.
    std::istringstream lines(csv_seq.str());
    std::string header, row1, row2, row3;
    std::getline(lines, header);
    std::getline(lines, row1);
    std::getline(lines, row2);
    std::getline(lines, row3);
    EXPECT_EQ(header.rfind("network,engine,cycles", 0), 0u);
    EXPECT_EQ(row1.rfind("Tiny,Stripes,", 0), 0u);
    EXPECT_EQ(row2.rfind("Tiny,DaDN,", 0), 0u);
    EXPECT_EQ(row3.rfind("Tiny,PRA-2b,", 0), 0u);
}

TEST(Sweep, FindResult)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}},
                                         {"stripes", {}}};
    auto results = runSweep(networks, grid, models::builtinEngines(),
                            tinyOptions(1));
    EXPECT_EQ(findResult(results, "Tiny", "Stripes").engineName,
              "Stripes");
    EXPECT_GT(findResult(results, "Tiny", "DaDN").totalCycles(), 0.0);
}

TEST(Sweep, DefaultConvSmokeCsvIsPinnedToSeedOutput)
{
    // Byte-identical pin of `pra_sweep --smoke --engines=all
    // --threads=1` (tiny network, default conv layer selection,
    // units=4, seed 0x5eed), captured before FC support landed. Any
    // change to these bytes is a regression of the "default output
    // never moves" guarantee — tests/golden/pra_sweep_smoke.csv and
    // the CI byte-compare job pin the same contract at tool level.
    const std::string golden =
        "network,engine,cycles,nm_stall_cycles,effectual_terms,"
        "sb_read_steps\n"
        "Tiny,DaDN,3096,0,15040512,3096\n"
        "Tiny,PRA-2b,1416.25,29.75,1674794,207\n"
        "Tiny,PRA-2b-1R,1120.5,132.125,1674794,207\n"
        "Tiny,Stripes,1530,0,6829056,193.5\n"
        "Tiny,terms-pra-red,1265568,0,1265568,0\n";

    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    SweepOptions options;
    options.threads = 1;
    options.sample.maxUnits = 4;
    auto results = runSweep(networks, allKindsGrid(),
                            models::builtinEngines(), options);
    std::ostringstream csv;
    writeSweepCsv(csv, results);
    EXPECT_EQ(csv.str(), golden);
}

TEST(Sweep, PaperGridCoversHeadlineDesigns)
{
    auto grid = models::paperEngineGrid();
    // DaDN + Stripes + PRA-0b..4b + PRA-2b-1R.
    EXPECT_EQ(grid.size(), 8u);
    const auto &registry = models::builtinEngines();
    std::vector<std::string> names;
    for (const auto &sel : grid)
        names.push_back(registry.create(sel)->name());
    EXPECT_EQ(names.front(), "DaDN");
    EXPECT_EQ(names.back(), "PRA-2b-1R");
}

} // namespace
} // namespace sim
} // namespace pra
