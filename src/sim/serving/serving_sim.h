/**
 * @file
 * Event-driven multi-instance serving simulation on top of the
 * per-batch cost substrate.
 *
 * The sweep machinery answers "how many cycles does a batch of B
 * images of network N cost on engine E?"; this module answers the
 * capacity-planning question the ROADMAP's north star actually asks:
 * "given an arrival rate, a batching policy, and a fleet of
 * identical accelerator instances, what latency distribution and
 * throughput does that design point deliver?"
 *
 * The pipeline has three stages:
 *
 *  1. **Cost curve** (buildBatchCostCurve): per (network, engine),
 *     the system cycles of a batch of 1..maxBatch images, built
 *     *incrementally* — one engine pass per image, accumulated in
 *     image order (accumulateBatchImage), memory model applied to
 *     each prefix — so entry b-1 is bit-identical to a standalone
 *     --batch=b sweep of the same cell and the whole curve costs
 *     maxBatch engine passes, not maxBatch * (maxBatch + 1) / 2.
 *  2. **Arrival trace** (sim/serving/arrival.h): counter-based
 *     seeded arrivals, independent of evaluation order, drawn block
 *     by block into an ArrivalTrace that every fleet of one offered
 *     rate reads and that frees blocks behind its slowest reader.
 *  3. **Fleet event loop** (simulateServing): instances are
 *     identical servers; the dispatcher repeatedly takes the
 *     earliest-free instance (lowest id on ties), launches at the
 *     cycle sim/serving/batching.h dictates, and charges the batch
 *     the curve's cost. The same loop plays fail-stop faults,
 *     retries, a bounded queue and the degrade watermark when they
 *     are configured. Its memory grows with the fleet and the queue,
 *     not the trace length. One loop is single-threaded over a
 *     fixed-order trace, so deterministic by construction; it may
 *     pause at the trace's drawn frontier and resume with the same
 *     plan, so how far the trace is drawn never changes a report. A
 *     sweep runs its (curve, rate) loops side by side, each writing
 *     its own report slot.
 *
 * A sweep (runServingSweep) is buildCostCurves then playServing,
 * joined in between. The curve build is the grid driver of
 * sim/sweep.h (priceGrid) over the whole grid with maxBatch images,
 * folding each cell's images into its curve in image order; the
 * fleet stage plays rounds of consecutive rates on --threads
 * workers: every (curve, rate) loop is one task, and every loop of a
 * rate reads that rate's one shared trace, drawn once by one more
 * task. Serving reports are therefore byte-identical across
 * --threads and --cache.
 *
 * Latencies (completion - arrival, in cycles) feed a log-spaced
 * util::Histogram; p50/p95/p99 are its conservative bucket bounds.
 * Rates convert through the nominal 1 GHz clock (kCyclesPerSecond):
 * the paper's designs are all specified at 1 GHz, so cycles and
 * nanoseconds coincide.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"
#include "sim/sampling.h"
#include "sim/serving/arrival.h"
#include "sim/serving/batching.h"
#include "sim/serving/faults.h"
#include "sim/sweep.h"
#include "sim/workload_cache.h"
#include "util/args.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

/** Nominal accelerator clock: all paper designs run at 1 GHz. */
inline constexpr double kCyclesPerSecond = 1e9;

/**
 * Latency histogram range: 2^42 cycles (~73 minutes at 1 GHz) with
 * 2^6 buckets per power of two (<= 1.6% relative bucket width).
 */
inline constexpr uint64_t kLatencyHistogramMax = uint64_t{1} << 42;
inline constexpr int kLatencyHistogramSubBits = 6;

/** One serving design point (everything but the workload cell). */
struct ServingConfig
{
    int instances = 1;     ///< Identical accelerator instances.
    int requests = 256;    ///< Trace length (one image per request).
    ArrivalSpec arrival;   ///< Arrival process (gap set per rate).
    BatchingPolicy policy; ///< Max-batch + timeout dispatch rule.

    // --- Degraded-serving layer. The defaults model a perfect fleet
    // --- (no faults, unbounded queue, no watermark); setting any of
    // --- them adds the degraded columns to the report's CSV.
    FaultSpec faults;      ///< Fail-stop schedule (mtbf 0 = off).
    RetryPolicy retry;     ///< Requeue rule for killed batches.
    /** Dispatch-queue bound; arrivals beyond it shed. 0 = unbounded. */
    int queueCap = 0;
    /**
     * Admission-control watermark: when the dispatch queue holds at
     * least this many waiting requests, the dispatcher degrades to
     * half the max batch and greedy (no-timeout) launches, trading
     * batch amortization for queue drain before the cap has to shed.
     * 0 = off.
     */
    int degradeWatermark = 0;
};

/** System-cycle cost of batches of 1..maxBatch images of one cell. */
struct BatchCostCurve
{
    std::string networkName;
    std::string engineName;
    /** [b-1]: system cycles of a batch of b (monotone in b). */
    std::vector<double> batchSystemCycles;
};

/**
 * Build the cost curve of (network, engine) for batches of
 * 1..max_batch images; see file comment for the incremental
 * construction and its bit-identity guarantee.
 */
BatchCostCurve buildBatchCostCurve(const dnn::Network &network,
                                   const Engine &engine,
                                   const WorkloadSource &source,
                                   const AccelConfig &accel,
                                   const SampleSpec &sample,
                                   const util::InnerExecutor &exec,
                                   int max_batch);

/** Outcome of one serving simulation. */
struct ServingReport
{
    std::string networkName;
    std::string engineName;

    ArrivalKind arrivalKind = ArrivalKind::Poisson;
    double offeredPerSecond = 0.0; ///< Offered load (images/s, 1 GHz).
    int instances = 1;
    int maxBatch = 1;
    uint64_t timeoutCycles = 0;
    int requests = 0;

    int64_t dispatches = 0;   ///< Batches launched.
    double meanBatch = 0.0;   ///< Dispatched images / dispatches.
    uint64_t p50Cycles = 0;   ///< Median request latency.
    uint64_t p95Cycles = 0;
    uint64_t p99Cycles = 0;
    double meanLatencyCycles = 0.0;
    /**
     * Completed throughput (goodput) at 1 GHz: only requests that
     * finished count, so under faults this is goodput vs the
     * offeredPerSecond column.
     */
    double imagesPerSecond = 0.0;
    double utilization = 0.0; ///< Busy share of instances * makespan.
    uint64_t makespanCycles = 0; ///< Last completion/resolution cycle.

    // --- Degraded-serving columns, emitted only when the fault
    // --- layer is configured (see writeServingCsv).
    bool degraded = false; ///< Degraded layer configured for this run.
    uint64_t mtbfCycles = 0;     ///< Config echo (0 = faults off).
    uint64_t mttrCycles = 0;     ///< Config echo.
    FaultKind faultKind = FaultKind::Exponential;
    int queueCap = 0;            ///< Config echo (0 = unbounded).
    int degradeWatermark = 0;    ///< Config echo (0 = off).
    int retryLimit = 0;          ///< Config echo (retry.maxRetries).
    uint64_t backoffBaseCycles = 0; ///< Config echo.
    int completed = 0;        ///< Requests that finished.
    int64_t retries = 0;      ///< Re-queued attempts after kills.
    int permanentFailures = 0; ///< Requests out of retry budget.
    int shedRequests = 0;     ///< Requests dropped at the full queue.
    int64_t killedBatches = 0; ///< In-flight batches lost to faults.
    int64_t instanceFailures = 0; ///< Fail-stop events before the end.
    int64_t degradedDispatches = 0; ///< Launches under the watermark.
    /** Instance up-share of instances * makespan (1 with faults off). */
    double availability = 1.0;
    /** p99 latency over requests that survived >= 1 kill (0: none). */
    uint64_t p99FaultedCycles = 0;
};

/**
 * Run the fleet event loop for one cost curve under @p config
 * (whose policy.maxBatch must not exceed the curve's length): a
 * round of one rate with one fleet, on the calling thread. One
 * loop serves every configuration: with faults, queue cap and
 * watermark off it launches every batch where a pull loop walking
 * the trace in order would (test-pinned). Deterministic: same
 * inputs, same report, bit for bit.
 */
ServingReport simulateServing(const BatchCostCurve &curve,
                              const ServingConfig &config);

/**
 * Options of a serving sweep over (networks x engines x rates). The
 * grid fields drive the curve build; threads also sizes the fleet
 * stage.
 */
struct ServingSweepOptions : GridOptions
{
    /** Offered load points (images/s at 1 GHz), one report each. */
    std::vector<double> offeredPerSecond;
    /** Fleet + policy + arrival kind/seed (gap filled per rate). */
    ServingConfig serving;
};

/**
 * Build every (network, engine) cost curve for batches of
 * 1..options.serving.policy.maxBatch, in (network-major, engine)
 * order: priceGrid over the whole grid with maxBatch images, each
 * cell's images folded into its curve in image order, so every curve
 * is bit-identical to a serial buildBatchCostCurve.
 */
std::vector<BatchCostCurve>
buildCostCurves(const std::vector<dnn::Network> &networks,
                const std::vector<EngineSelection> &engines,
                const EngineRegistry &registry,
                const ServingSweepOptions &options);

/**
 * Run the fleet event loop of options.serving on every curve at
 * every offered rate, on options.threads workers. Rates play in
 * rounds of the fewest consecutive rates that hold at least
 * options.threads loops (one rate when serial); every loop of a rate
 * reads one shared ArrivalTrace, so each rate's trace is drawn once.
 * Each loop equals simulateServing of its (curve, rate), and reports
 * come back in (curve, rate) order. Curves are reusable: playing one
 * set under several serving configs equals one runServingSweep per
 * config.
 */
std::vector<ServingReport>
playServing(const std::vector<BatchCostCurve> &curves,
            const ServingSweepOptions &options);

/**
 * Parse a --traffic value: comma-separated offered rates in images/s,
 * each positive and at most kCyclesPerSecond. fatal() on a bad rate
 * or an empty list.
 */
std::vector<double> parseOfferedRates(const std::string &list);

/** The flags parseServingFlags reads, for a program's checkUnknown. */
inline const std::vector<std::string> kServingFlags = {
    "traffic", "arrival", "instances", "max-batch", "timeout",
    "requests"};

/**
 * Read the serving flags of @p args into @p options: --traffic
 * (default @p default_traffic, "1000,100000" under --smoke),
 * --arrival, --instances, --max-batch, --timeout and --requests. The
 * arrival seed is options.seed, so parse the grid flags first.
 * fatal() on a degenerate value, never an empty simulation, and on
 * more than 4096 instances: the planner scans every instance on
 * each dispatch.
 */
void parseServingFlags(const util::ArgParser &args,
                       const std::string &default_traffic,
                       ServingSweepOptions &options);

/**
 * playServing(buildCostCurves(...)): every report of the grid, in
 * (network-major, engine, rate) order. The serving config and rates
 * are checked on the calling thread before any curve is built.
 */
std::vector<ServingReport>
runServingSweep(const std::vector<dnn::Network> &networks,
                const std::vector<EngineSelection> &engines,
                const EngineRegistry &registry,
                const ServingSweepOptions &options);

/**
 * Emit serving reports as CSV (round-trip precision, so two report
 * sets are bit-identical iff their CSV dumps are byte-identical).
 */
void writeServingCsv(std::ostream &out,
                     const std::vector<ServingReport> &reports);

} // namespace sim
} // namespace pra
