#include "workloads.h"

#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "models/engines.h"
#include "models/pragmatic/schedule.h"
#include "sim/memory/memory_config.h"
#include "sim/memory/memory_model.h"
#include "sim/sampling.h"
#include "sim/tiling.h"
#include "util/logging.h"

namespace perfbench {

using namespace pra;

namespace {

std::vector<sim::EngineSelection>
parseEngines(const std::vector<std::string> &specs)
{
    std::vector<sim::EngineSelection> grid;
    for (const auto &spec : specs)
        grid.push_back(sim::parseEngineSpec(spec));
    return grid;
}

/** The serving cells both serving workloads share. */
Workload
servingBase(uint64_t seed, int requests)
{
    Workload w;
    w.serving = true;
    w.networks = {"AlexNet"};
    w.engines = models::paperEngineGrid();
    w.serve.seed = seed;
    w.serve.offeredPerSecond = {2000.0, 8000.0, 32000.0};
    w.serve.serving.instances = 4;
    w.serve.serving.requests = requests;
    w.serve.serving.policy.maxBatch = 8;
    w.serve.serving.policy.timeoutCycles = 1000000;
    w.serve.serving.arrival.seed = seed;
    w.serve.serving.faults.seed = seed;
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "sweep_conv_b4") {
        Workload w;
        w.networks = {"AlexNet", "NiN"};
        w.engines = parseEngines({"dadn", "stripes", "dynamic_stripes",
                                  "pragmatic", "pragmatic-col",
                                  "laconic", "terms"});
        w.sweep.seed = seed;
        w.sweep.batch = 4;
        w.sweep.accel.memory = sim::parseMemoryPreset("dadn");
        return w;
    }
    if (name == "sweep_propagated") {
        Workload w;
        w.networks = {"AlexNet", "NiN", "GoogLeNet"};
        w.select = dnn::LayerSelect::All;
        w.engines = parseEngines({"dadn", "pragmatic:bits=2",
                                  "pragmatic-col", "laconic"});
        w.sweep.seed = seed;
        w.sweep.activations = sim::ActivationMode::Propagated;
        return w;
    }
    if (name == "serve_ideal")
        return servingBase(seed, 1000000);
    if (name == "serve_faulted") {
        Workload w = servingBase(seed, 100000);
        w.serve.serving.faults.mtbfCycles = 100000000;
        w.serve.serving.faults.mttrCycles = 10000000;
        w.serve.serving.queueCap = 4096;
        w.serve.serving.degradeWatermark = 1024;
        return w;
    }
    util::fatal("perfbench: unknown workload '" + name + "'");
}

Workload
smokeSweepWorkload()
{
    Workload w;
    w.networks = {"tiny"};
    w.engines = models::coreEngineGrid();
    w.sweep.sample.maxUnits = 4;
    return w;
}

Workload
smokeServingWorkload()
{
    Workload w = servingBase(0x5eed, 64);
    w.networks = {"tiny"};
    w.engines = models::coreEngineGrid();
    w.serve.sample.maxUnits = 4;
    w.serve.offeredPerSecond = {1000.0, 100000.0};
    w.serve.serving.instances = 1;
    return w;
}

Setup
buildSetup(const Workload &workload)
{
    Setup setup;
    for (const auto &name : workload.networks)
        setup.networks.push_back(
            dnn::makeNetworkByName(name, workload.select));
    for (const auto &sel : workload.engines)
        setup.engines.push_back(models::builtinEngines().create(sel));
    for (const auto &network : setup.networks)
        setup.synths.push_back(
            std::make_unique<const dnn::ActivationSynthesizer>(
                network, workload.seed()));
    return setup;
}

RunOutput
runTopLevel(const Workload &workload,
            const std::vector<dnn::Network> &networks)
{
    RunOutput out;
    std::ostringstream csv;
    if (workload.serving) {
        out.servingRows =
            sim::runServingSweep(networks, workload.engines,
                                 models::builtinEngines(), workload.serve);
        sim::writeServingCsv(csv, out.servingRows);
    } else {
        out.sweepRows = sim::runSweep(networks, workload.engines,
                                      models::builtinEngines(),
                                      workload.sweep);
        sim::writeSweepCsv(csv, out.sweepRows);
    }
    out.csv = csv.str();
    return out;
}

namespace {

/** Plane families the replay builds ahead of each engine call. */
enum PlaneFamily { kBrick, kLanePop, kWeights, kCycle };

/**
 * Serial replay state: one shared WorkloadCache, as the top-level
 * call uses, plus the bookkeeping that tells a build from a lookup.
 */
class Replayer
{
  public:
    Replayer(const Workload &workload, Tracer &tracer)
        : w_(workload), tr_(tracer)
    {
    }

    /**
     * The cache lookup of one layer stream. Misses are synthesis
     * (synthetic) or stream derivation after the forward pass
     * (propagated, which first builds the chain in its own span).
     */
    std::shared_ptr<const sim::LayerWorkload>
    fetch(const dnn::ActivationSynthesizer &synth, int layer_idx,
          sim::InputStream stream, int image)
    {
        const sim::ActivationMode mode = w_.activations();
        if (stream == sim::InputStream::None)
            return cache_.layer(synth, layer_idx, stream, mode, image);
        if (mode == sim::ActivationMode::Propagated &&
            chains_.insert({&synth, image}).second) {
            Tracer::Span span(tr_, "dnn.propagate");
            cache_.chain(synth, image);
            tr_.add("dnn.propagate.macs",
                    static_cast<double>(synth.network().totalProducts()));
        }
        Tracer::Span span(tr_, "sim.cache.hit");
        const int64_t misses = cache_.misses();
        std::shared_ptr<const sim::LayerWorkload> workload =
            cache_.layer(synth, layer_idx, stream, mode, image);
        if (cache_.misses() != misses) {
            if (mode == sim::ActivationMode::Propagated) {
                span.rename("dnn.propagate");
            } else {
                span.rename("dnn.synth");
                tr_.add("dnn.synth.elements",
                        static_cast<double>(workload->tensor().size()));
            }
        }
        return workload;
    }

    /**
     * Build the planes @p sel reads from @p workload (see
     * models/pragmatic/brick_cost.h, laconic.cc, term_count.cc and
     * dynamic_stripes.cc), each in its own span on first use.
     */
    void touchPlanes(const sim::EngineSelection &sel,
                     const dnn::Network &network, int layer_idx,
                     const sim::LayerWorkload &workload)
    {
        if (workload.tensor().empty() ||
            w_.accel().neuronLanes != dnn::kBrickSize)
            return;
        const dnn::LayerSpec &layer =
            network.layers[static_cast<size_t>(layer_idx)];
        if (sel.kind == "dynamic_stripes" &&
            sim::knobBool(sel.knobs, "diffy", false))
            return; // Diffy rebuilds its planes from a local tensor.
        touch(workload, kBrick, [&] {
            tr_.add("sim.planes.bricks",
                    static_cast<double>(workload.brickPlanes().pop.size()));
        });
        if (sel.kind == "pragmatic" || sel.kind == "pragmatic-col") {
            const int bits =
                static_cast<int>(sim::knobInt(sel.knobs, "bits", 2));
            if (bits >= 1 && bits < models::kMaxFirstStageBits &&
                sim::cyclePlanesEnabled())
                touch(workload, kCycle + bits,
                      [&] { workload.cyclePlane(bits); });
        }
        if (sel.kind == "laconic") {
            touch(workload, kWeights, [&] {
                workload.weightPlanes(layer);
                tr_.add("dnn.weights.builds", 1.0);
                tr_.add("dnn.weights.codes",
                        static_cast<double>(layer.synapses()));
                weightLayers_.insert({network.name, layer.name});
            });
            touch(workload, kLanePop, [&] { workload.lanePopPlanes(); });
        }
    }

    /**
     * Fetch the streams @p sel reads of one layer image and build
     * their planes. Returns the engine's input workload, or nullptr
     * for the analytic terms engine, which reads the raw and trimmed
     * streams itself.
     */
    std::shared_ptr<const sim::LayerWorkload>
    prepare(const sim::EngineSelection &sel, const sim::Engine &engine,
            const dnn::Network &network,
            const dnn::ActivationSynthesizer &synth, int layer_idx,
            int image)
    {
        if (sel.kind == "terms") {
            for (auto stream : {sim::InputStream::Fixed16Raw,
                                sim::InputStream::Fixed16Trimmed})
                touchPlanes(sel, network, layer_idx,
                            *fetch(synth, layer_idx, stream, image));
            return nullptr;
        }
        std::shared_ptr<const sim::LayerWorkload> workload =
            fetch(synth, layer_idx, engine.inputStream(), image);
        touchPlanes(sel, network, layer_idx, *workload);
        return workload;
    }

    /**
     * Price image @p image of @p network on one engine, layer by
     * layer, exactly as Engine::runNetwork does. The analytic terms
     * engine overrides runNetwork (first-layer rule, two streams), so
     * it runs whole-network after its streams and planes are built.
     */
    sim::NetworkResult
    priceImage(const dnn::Network &network,
               const dnn::ActivationSynthesizer &synth,
               const sim::EngineSelection &sel, const sim::Engine &engine,
               int image)
    {
        const std::string span_name = "models." + sel.kind;
        const std::string evals_name = span_name + ".evals";
        if (sel.kind == "terms") {
            for (size_t i = 0; i < network.layers.size(); i++) {
                if (!network.layers[i].priced())
                    continue;
                prepare(sel, engine, network, synth, static_cast<int>(i),
                        image);
                tr_.add(evals_name, 1.0);
            }
            Tracer::Span span(tr_, span_name);
            const int64_t hits = cache_.hits();
            sim::NetworkResult result = engine.runNetwork(
                network,
                sim::WorkloadSource(synth, cache_, w_.activations())
                    .withImage(image),
                w_.accel(), w_.sample(), util::InnerExecutor());
            replayHits_ += cache_.hits() - hits;
            return result;
        }
        sim::NetworkResult result;
        result.networkName = network.name;
        result.engineName = engine.name();
        for (size_t i = 0; i < network.layers.size(); i++) {
            if (!network.layers[i].priced())
                continue;
            std::shared_ptr<const sim::LayerWorkload> workload = prepare(
                sel, engine, network, synth, static_cast<int>(i), image);
            Tracer::Span span(tr_, span_name);
            result.layers.push_back(engine.simulateLayer(
                network.layers[i], *workload, w_.accel(), w_.sample(),
                util::InnerExecutor()));
            tr_.add(evals_name, 1.0);
        }
        return result;
    }

    RunOutput
    run()
    {
        std::vector<dnn::Network> networks;
        std::vector<std::unique_ptr<sim::Engine>> engines;
        std::vector<std::shared_ptr<const dnn::ActivationSynthesizer>>
            synths;
        {
            Tracer::Span span(tr_, "setup");
            for (const auto &name : w_.networks)
                networks.push_back(dnn::makeNetworkByName(name, w_.select));
            for (const auto &sel : w_.engines)
                engines.push_back(models::builtinEngines().create(sel));
            for (const auto &network : networks)
                synths.push_back(cache_.synthesizer(network, w_.seed()));
        }
        RunOutput out = w_.serving ? runServing(networks, engines, synths)
                                   : runSweep(networks, engines, synths);
        tr_.add("sim.cache.hits",
                static_cast<double>(cache_.hits() - replayHits_));
        tr_.add("sim.cache.misses", static_cast<double>(cache_.misses()));
        tr_.add("dnn.weights.distinct_layers",
                static_cast<double>(weightLayers_.size()));
        return out;
    }

  private:
    template <typename Build>
    void touch(const sim::LayerWorkload &workload, int family,
               Build &&build)
    {
        if (!built_.insert({&workload, family}).second)
            return;
        static const char *const names[] = {
            "sim.planes.brick", "sim.planes.lanepop", "dnn.weights"};
        Tracer::Span span(tr_, family >= kCycle ? "sim.planes.cycle"
                                                : names[family]);
        build();
    }

    RunOutput
    runSweep(
        const std::vector<dnn::Network> &networks,
        const std::vector<std::unique_ptr<sim::Engine>> &engines,
        const std::vector<std::shared_ptr<const dnn::ActivationSynthesizer>>
            &synths)
    {
        RunOutput out;
        const int batch = w_.sweep.batch;
        for (size_t n = 0; n < networks.size(); n++) {
            for (size_t e = 0; e < engines.size(); e++) {
                // Engine::runBatch's accumulation, then the sweep's
                // memory composition.
                sim::NetworkResult cell;
                for (int b = 0; b < batch; b++) {
                    sim::NetworkResult image =
                        priceImage(networks[n], *synths[n],
                                   w_.engines[e], *engines[e], b);
                    if (b == 0)
                        cell = std::move(image);
                    else
                        sim::accumulateBatchImage(cell, image);
                }
                for (auto &layer : cell.layers)
                    layer.batchImages = batch;
                {
                    Tracer::Span span(tr_, "sim.memory");
                    sim::applyMemoryModel(networks[n], w_.accel(), cell);
                }
                tr_.add("sim.memory.offchip_bytes",
                        cell.totalOffChipBytes());
                out.sweepRows.push_back(std::move(cell));
            }
        }
        Tracer::Span span(tr_, "sim.csv");
        std::ostringstream csv;
        sim::writeSweepCsv(csv, out.sweepRows);
        out.csv = csv.str();
        return out;
    }

    RunOutput
    runServing(
        const std::vector<dnn::Network> &networks,
        const std::vector<std::unique_ptr<sim::Engine>> &engines,
        const std::vector<std::shared_ptr<const dnn::ActivationSynthesizer>>
            &synths)
    {
        RunOutput out;
        const int max_batch = w_.serve.serving.policy.maxBatch;
        std::vector<sim::BatchCostCurve> curves;
        for (size_t n = 0; n < networks.size(); n++) {
            for (size_t e = 0; e < engines.size(); e++) {
                Tracer::Span span(tr_, "sim.serving.curve");
                for (int b = 0; b < max_batch; b++)
                    for (size_t i = 0; i < networks[n].layers.size(); i++)
                        if (networks[n].layers[i].priced())
                            prepare(w_.engines[e], *engines[e], networks[n],
                                    *synths[n], static_cast<int>(i), b);
                const int64_t hits = cache_.hits();
                curves.push_back(sim::buildBatchCostCurve(
                    networks[n], *engines[e],
                    sim::WorkloadSource(*synths[n], cache_,
                                        w_.activations()),
                    w_.accel(), w_.sample(), util::InnerExecutor(),
                    max_batch));
                replayHits_ += cache_.hits() - hits;
            }
        }
        for (const auto &curve : curves) {
            for (double rate : w_.serve.offeredPerSecond) {
                sim::ServingConfig config = w_.serve.serving;
                config.arrival.meanGapCycles = sim::kCyclesPerSecond / rate;
                Tracer::Span span(tr_, "sim.serving.fleet");
                out.servingRows.push_back(
                    sim::simulateServing(curve, config));
                tr_.add("sim.serving.fleet.dispatches",
                        static_cast<double>(
                            out.servingRows.back().dispatches));
                tr_.add("sim.serving.fleet.requests",
                        static_cast<double>(config.requests));
            }
        }
        Tracer::Span span(tr_, "sim.csv");
        std::ostringstream csv;
        sim::writeServingCsv(csv, out.servingRows);
        out.csv = csv.str();
        return out;
    }

    const Workload &w_;
    Tracer &tr_;
    sim::WorkloadCache cache_;
    /** (workload, family) pairs whose planes are already built. */
    std::set<std::pair<const sim::LayerWorkload *, int>> built_;
    /** (synthesizer, image) pairs whose chain is already built. */
    std::set<std::pair<const dnn::ActivationSynthesizer *, int>> chains_;
    /** (network, layer) pairs whose weight planes were built. */
    std::set<std::pair<std::string, std::string>> weightLayers_;
    /**
     * Cache hits only the replay causes: the terms engine and the
     * cost curves look up streams the replay already fetched.
     */
    int64_t replayHits_ = 0;
};

} // namespace

RunOutput
replay(const Workload &workload, Tracer &tracer)
{
    return Replayer(workload, tracer).run();
}

void
Checks::expect(bool ok, const std::string &what)
{
    attempted++;
    if (!ok) {
        failed++;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

void
checkRows(const RunOutput &output, Checks &checks)
{
    for (const auto &row : output.sweepRows)
        checks.expect(row.totalSystemCycles() >= row.totalCycles() &&
                          row.totalCycles() > 0.0,
                      "system_cycles >= cycles > 0 on " + row.networkName +
                          "/" + row.engineName);
    for (const auto &r : output.servingRows) {
        checks.expect(r.completed + r.permanentFailures +
                              r.shedRequests ==
                          r.requests,
                      "completed + permanent_failures + shed == requests "
                      "on " + r.networkName + "/" + r.engineName);
        checks.expect(r.availability >= 0.0 && r.availability <= 1.0,
                      "availability in [0, 1] on " + r.networkName + "/" +
                          r.engineName);
    }
}

int64_t
pricedEvaluations(const Workload &workload,
                  const std::vector<dnn::Network> &networks)
{
    int64_t layers = 0;
    for (const auto &network : networks)
        for (const auto &layer : network.layers)
            layers += layer.priced() ? 1 : 0;
    return layers * static_cast<int64_t>(workload.engines.size()) *
           workload.images();
}

double
pricedShare(const Workload &workload,
            const std::vector<dnn::Network> &networks)
{
    double priced = 0.0;
    double total = 0.0;
    for (const auto &network : networks) {
        for (const auto &layer : network.layers) {
            if (!layer.priced())
                continue;
            const int64_t pallets =
                sim::LayerTiling::palletCount(layer, workload.accel());
            priced += static_cast<double>(
                sim::planSample(pallets, workload.sample()).indices.size());
            total += static_cast<double>(pallets);
        }
    }
    return total > 0.0 ? priced / total : 0.0;
}

SimFigures
simFigures(const Workload &workload, const RunOutput &output)
{
    SimFigures figures;
    if (!workload.serving) {
        std::string pra_col;
        for (const auto &sel : workload.engines)
            if (sel.kind == "pragmatic-col")
                pra_col = models::builtinEngines().create(sel)->name();
        std::vector<double> speedups;
        for (const auto &row : output.sweepRows)
            if (row.engineName == pra_col)
                speedups.push_back(row.speedupOver(sim::findResult(
                    output.sweepRows, row.networkName, "DaDN")));
        if (!speedups.empty())
            figures.speedupVsDadn = sim::geometricMean(speedups);
        return figures;
    }
    for (const auto &r : output.servingRows) {
        if (r.engineName != "PRA-2b-1R")
            continue;
        if (r.offeredPerSecond == 8000.0)
            figures.p99Ms = static_cast<double>(r.p99Cycles) * 1e3 /
                            sim::kCyclesPerSecond;
        if (r.offeredPerSecond == 32000.0)
            figures.capacityIps = r.imagesPerSecond;
    }
    return figures;
}

} // namespace perfbench
