/**
 * @file
 * The benchmark's named workloads and the two ways it drives them.
 *
 * runTopLevel() is what a user runs: one call to sim::runSweep or
 * sim::runServingSweep plus the CSV writer, untraced. replay()
 * reproduces the same output serially through the finer public calls
 * (WorkloadCache::layer/chain, the LayerWorkload plane accessors,
 * Engine::simulateLayer, applyMemoryModel, buildBatchCostCurve,
 * simulateServing), each wrapped in a Tracer span, so a run's time
 * splits by module without touching the library. Both return the
 * CSV bytes, and the checks compare them byte for byte.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/network.h"
#include "sim/engine.h"
#include "sim/serving/serving_sim.h"
#include "sim/sweep.h"
#include "trace.h"

namespace perfbench {

/** One named workload: a sweep grid or a serving sweep. */
struct Workload
{
    bool serving = false;
    std::vector<std::string> networks; ///< Model-zoo names.
    pra::dnn::LayerSelect select = pra::dnn::LayerSelect::Conv;
    std::vector<pra::sim::EngineSelection> engines;
    pra::sim::SweepOptions sweep;         ///< Used when !serving.
    pra::sim::ServingSweepOptions serve;  ///< Used when serving.

    const pra::sim::AccelConfig &accel() const
    {
        return serving ? serve.accel : sweep.accel;
    }
    const pra::sim::SampleSpec &sample() const
    {
        return serving ? serve.sample : sweep.sample;
    }
    uint64_t seed() const { return serving ? serve.seed : sweep.seed; }
    pra::sim::ActivationMode activations() const
    {
        return serving ? serve.activations : sweep.activations;
    }
    /** Images each (network, engine) cell prices. */
    int images() const
    {
        return serving ? serve.serving.policy.maxBatch : sweep.batch;
    }
    void setThreads(int threads)
    {
        sweep.threads = threads;
        serve.threads = threads;
    }
};

/**
 * The workload @p name with every seed (synthesis, arrivals, faults)
 * set to @p seed; fatal() on an unknown name.
 */
Workload makeWorkload(const std::string &name, uint64_t seed);

/** The settings `pra_sweep --smoke --engines=all` pins in its golden. */
Workload smokeSweepWorkload();

/** The settings `pra_serve --smoke --engines=all` pins in its golden. */
Workload smokeServingWorkload();

/**
 * Everything built before the first priced layer: the networks, one
 * instance of each engine selection, and each network's
 * ActivationSynthesizer (its calibration).
 */
struct Setup
{
    std::vector<pra::dnn::Network> networks;
    std::vector<std::unique_ptr<pra::sim::Engine>> engines;
    std::vector<std::unique_ptr<const pra::dnn::ActivationSynthesizer>>
        synths;
};

Setup buildSetup(const Workload &workload);

/** One run's CSV bytes plus the structured rows the checks read. */
struct RunOutput
{
    std::string csv;
    std::vector<pra::sim::NetworkResult> sweepRows;
    std::vector<pra::sim::ServingReport> servingRows;
};

/** The untraced top-level call, CSV written to memory. */
RunOutput runTopLevel(const Workload &workload,
                      const std::vector<pra::dnn::Network> &networks);

/**
 * The serial traced replay. Must produce the same CSV bytes as
 * runTopLevel at any thread count.
 */
RunOutput replay(const Workload &workload, Tracer &tracer);

/** Output-check tally. */
struct Checks
{
    int64_t attempted = 0;
    int64_t failed = 0;

    /** Count one check; report a failure on stderr. */
    void expect(bool ok, const std::string &what);
};

/**
 * Seed-independent row invariants: sweep rows have
 * system_cycles >= cycles > 0; serving rows resolve every request
 * exactly once (completed + permanent failures + shed == requests)
 * with availability in [0, 1].
 */
void checkRows(const RunOutput &output, Checks &checks);

/** Priced (layer x engine x image) evaluations one run performs. */
int64_t pricedEvaluations(const Workload &workload,
                          const std::vector<pra::dnn::Network> &networks);

/** Pallets the sampling plan prices / pallets in the layers. */
double pricedShare(const Workload &workload,
                   const std::vector<pra::dnn::Network> &networks);

/** Simulated headline figures; 0 where a figure does not apply. */
struct SimFigures
{
    double speedupVsDadn = 0.0; ///< Geomean DaDN / PRA-col cycles.
    double p99Ms = 0.0;         ///< PRA-2b-1R p99 at 8000 images/s.
    double capacityIps = 0.0;   ///< PRA-2b-1R images/s at 32000.
};

SimFigures simFigures(const Workload &workload, const RunOutput &output);

} // namespace perfbench
