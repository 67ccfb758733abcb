/**
 * @file
 * Tests for the serving subsystem: counter-based arrivals and their
 * block-drawn trace, the max-batch + timeout dispatch rule, the incremental
 * batch cost curve, the fleet event loop (checked against a pull-loop
 * oracle), and the determinism of the serving sweep's CSV across
 * threads and cache modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/memory/memory_config.h"
#include "sim/memory/memory_model.h"
#include "sim/serving/serving_sim.h"
#include "sim/sweep.h"
#include "tests/sim/batch_oracle.h"
#include "util/args.h"
#include "util/stats.h"

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

TEST(Arrival, GapIsAPureFunctionOfSeedAndIndex)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 1234.5;
    for (int i : {0, 1, 7, 4096})
        EXPECT_EQ(arrivalGap(spec, i), arrivalGap(spec, i)) << i;

    ArrivalSpec reseeded = spec;
    reseeded.seed = spec.seed + 1;
    bool any_differs = false;
    for (int i = 0; i < 16; i++)
        any_differs |= arrivalGap(spec, i) != arrivalGap(reseeded, i);
    EXPECT_TRUE(any_differs);
}

/** The first @p count arrival cycles, drawn through an ArrivalTrace. */
std::vector<uint64_t>
trace(const ArrivalSpec &spec, int count)
{
    ArrivalTrace arrivals(spec, count);
    std::vector<uint64_t> cycles;
    while (!arrivals.complete()) {
        arrivals.append(arrivals.drawNext());
        for (int i = static_cast<int>(cycles.size()); i < arrivals.drawn();
             i++)
            cycles.push_back(arrivals.cycle(i));
    }
    return cycles;
}

/** The first @p count arrival cycles as prefix sums of arrivalGap. */
std::vector<uint64_t>
gapSums(const ArrivalSpec &spec, int count)
{
    std::vector<uint64_t> sums;
    uint64_t now = 0;
    for (int i = 0; i < count; i++)
        sums.push_back(now += arrivalGap(spec, i));
    return sums;
}

/** Trace lengths just below, at and past one block and past three. */
constexpr int kBlock = ArrivalTrace::kBlock;
const int kBlockCounts[] = {kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 5};

TEST(Arrival, UniformIsAFixedRoundedGap)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Uniform;
    spec.meanGapCycles = 250.5;
    auto arrivals = trace(spec, 4);
    ASSERT_EQ(arrivals.size(), 4u);
    // llround(250.5) = 251, evenly spaced from the first request.
    EXPECT_EQ(arrivals[0], 251u);
    EXPECT_EQ(arrivals[1], 502u);
    EXPECT_EQ(arrivals[2], 753u);
    EXPECT_EQ(arrivals[3], 1004u);
}

TEST(Arrival, TracePrefixIsStable)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 777.0;
    auto short_trace = trace(spec, 8);
    auto long_trace = trace(spec, 64);
    for (size_t i = 0; i < short_trace.size(); i++)
        EXPECT_EQ(short_trace[i], long_trace[i]) << i;
}

TEST(Arrival, TraceReadsThePrefixSumOfGaps)
{
    // Request i arrives at gap(0) + ... + gap(i). Every cycle the
    // trace holds must agree with that sum, across its block bounds
    // and up to the end of the trace, for a reader at the frontier
    // and for readers that lag it (the window [low, drawn) spans
    // blocks).
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Uniform})
        for (int count : kBlockCounts) {
            SCOPED_TRACE(std::string(arrivalKindName(kind)) + " x " +
                         std::to_string(count));
            ArrivalSpec spec;
            spec.kind = kind;
            spec.meanGapCycles = 333.3;
            const std::vector<uint64_t> sums = gapSums(spec, count);
            EXPECT_EQ(trace(spec, count), sums);
            for (int lag : {0, 3, kBlock + 1}) {
                ArrivalTrace arrivals(spec, count);
                ASSERT_EQ(arrivals.count(), count);
                ASSERT_EQ(arrivals.drawn(), 0);
                int low = 0;
                while (!arrivals.complete()) {
                    const int drawn = arrivals.drawn();
                    std::vector<uint64_t> block = arrivals.drawNext();
                    // Drawing leaves the trace as it was.
                    ASSERT_EQ(arrivals.drawn(), drawn);
                    ASSERT_EQ(block.size(),
                              static_cast<size_t>(
                                  std::min(kBlock, count - drawn)));
                    arrivals.append(std::move(block));
                    ASSERT_EQ(arrivals.drawn(),
                              std::min(count, drawn + kBlock));
                    for (int i = low; i < arrivals.drawn(); i++)
                        ASSERT_EQ(arrivals.cycle(i),
                                  sums[static_cast<size_t>(i)])
                            << "lag " << lag << " at " << i;
                    low = std::max(low, arrivals.drawn() - lag);
                    arrivals.release(low);
                }
                EXPECT_EQ(arrivals.drawn(), count);
            }
        }
}

TEST(Arrival, PoissonGapsAverageNearTheMean)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 1000.0;
    double sum = 0.0;
    const int n = 4096;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(arrivalGap(spec, i));
    double mean = sum / n;
    EXPECT_GT(mean, 900.0);
    EXPECT_LT(mean, 1100.0);
}

TEST(Arrival, GapsRoundHalfAwayFromZero)
{
    // The rounding is std::llround's, at and around the halfway
    // points, for uniform gaps below and above 2^53.
    for (double gap : {1.0, 1.49999999999999978, 1.5, 2.5, 1e6 + 0.5,
                       4503599627370495.5, 9007199254740993.0}) {
        ArrivalSpec spec;
        spec.kind = ArrivalKind::Uniform;
        spec.meanGapCycles = gap;
        EXPECT_EQ(arrivalGap(spec, 0),
                  static_cast<uint64_t>(std::llround(gap)))
            << gap;
    }
}

TEST(Arrival, GapsNeverAliasToZero)
{
    // Exponential draws near zero round up to one full cycle, so the
    // trace stays strictly increasing.
    ArrivalSpec spec;
    spec.meanGapCycles = 1.0;
    auto arrivals = trace(spec, 256);
    for (size_t i = 1; i < arrivals.size(); i++)
        EXPECT_LT(arrivals[i - 1], arrivals[i]);
}

TEST(ArrivalDeathTest, RejectsDegenerateSpecs)
{
    ArrivalSpec spec;
    spec.meanGapCycles = 0.5;
    EXPECT_DEATH(arrivalGap(spec, 0), "mean gap");
    EXPECT_DEATH(ArrivalTrace(spec, 4), "mean gap");
    ArrivalSpec ok;
    EXPECT_DEATH(arrivalGap(ok, -1), "negative");
    EXPECT_DEATH(ArrivalTrace(ok, 0), "at least one");
    // A trace frees only what it drew, and publishes only the block
    // drawNext drew for it.
    EXPECT_DEATH(ArrivalTrace(ok, 4).release(1), "drawn frontier");
    EXPECT_DEATH(ArrivalTrace(ok, 4).append({1, 2, 3}), "drawNext drew");
    EXPECT_DEATH(parseArrivalKind("bursty"), "uniform or poisson");
}

TEST(Batching, TimeoutZeroDispatchesGreedily)
{
    BatchingPolicy greedy{8, 0};
    EXPECT_EQ(dispatchCycle(greedy, 0, 1000, 2000), 1000u);
    EXPECT_EQ(dispatchCycle(greedy, 5000, 1000, 2000), 5000u);
}

TEST(Batching, FillWinsWhenItBeatsTheTimeout)
{
    BatchingPolicy policy{8, 10000};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, 2000), 2000u);
}

TEST(Batching, TimeoutCapsTheHeadOfLineWait)
{
    BatchingPolicy policy{8, 500};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, 2000), 1500u);
}

TEST(Batching, NeverFillingBatchWaitsOnlyForTheTimeout)
{
    BatchingPolicy policy{8, 500};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, kNeverFills), 1500u);
}

TEST(Batching, SaturatedDeadlineFallsBackToTheHead)
{
    // A huge timeout saturates instead of wrapping; with no filling
    // request either, the dispatch goes out at the head's arrival.
    BatchingPolicy policy{8, kNeverFills};
    EXPECT_EQ(dispatchCycle(policy, 0, 1000, kNeverFills), 1000u);
    BatchingPolicy small{8, 100};
    EXPECT_EQ(dispatchCycle(small, 0, kNeverFills - 10, kNeverFills),
              kNeverFills - 10);
}

TEST(Batching, DeadlineSaturationBoundaryIsExact)
{
    // head + timeout == UINT64_MAX is exactly the "never" sentinel
    // (deadline falls back to the head); one cycle short of it is a
    // real finite deadline; one cycle past it must clamp rather than
    // wrap around to a tiny deadline that dispatches immediately.
    BatchingPolicy policy{8, 100};
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 101, kNeverFills),
              kNeverFills - 1);
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 100, kNeverFills),
              kNeverFills - 100);
    EXPECT_EQ(dispatchCycle(policy, 0, kNeverFills - 50, kNeverFills),
              kNeverFills - 50);
}

TEST(BatchingDeathTest, RejectsBadPolicyAndOrdering)
{
    BatchingPolicy bad{0, 0};
    EXPECT_DEATH(dispatchCycle(bad, 0, 0, 0), "maxBatch");
    BatchingPolicy ok{2, 0};
    EXPECT_DEATH(dispatchCycle(ok, 0, 1000, 999), "fill precedes");
}

TEST(CostCurve, PrefixesMatchStandaloneRunBatch)
{
    // The incremental construction must reproduce a standalone
    // runBatch(b) + memory model bit for bit at every prefix.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadSource source(synth);
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    SampleSpec sample{2};
    util::InnerExecutor exec;
    const int max_batch = 3;
    for (const char *kind : {"dadn", "pragmatic"}) {
        auto engine = models::builtinEngines().create(kind);
        BatchCostCurve curve = buildBatchCostCurve(
            net, *engine, source, accel, sample, exec, max_batch);
        ASSERT_EQ(curve.batchSystemCycles.size(),
                  static_cast<size_t>(max_batch));
        for (int b = 1; b <= max_batch; b++) {
            NetworkResult batch =
                runBatch(*engine, net, source, accel, sample, exec, b);
            applyMemoryModel(net, accel, batch);
            EXPECT_EQ(curve.batchSystemCycles[b - 1],
                      batch.totalSystemCycles())
                << kind << " b=" << b;
        }
        for (size_t i = 1; i < curve.batchSystemCycles.size(); i++)
            EXPECT_GE(curve.batchSystemCycles[i],
                      curve.batchSystemCycles[i - 1])
                << kind;
    }
}

BatchCostCurve
syntheticCurve(std::vector<double> cycles)
{
    BatchCostCurve curve;
    curve.networkName = "Synthetic";
    curve.engineName = "Fixed";
    curve.batchSystemCycles = std::move(cycles);
    return curve;
}

ServingConfig
uniformConfig(double gap, int requests, int max_batch,
              uint64_t timeout)
{
    ServingConfig config;
    config.arrival.kind = ArrivalKind::Uniform;
    config.arrival.meanGapCycles = gap;
    config.requests = requests;
    config.policy.maxBatch = max_batch;
    config.policy.timeoutCycles = timeout;
    return config;
}

TEST(ServingSim, GreedyUniformTraceIsHandCheckable)
{
    // Uniform arrivals at 1000, 2000, 3000, 4000; one instance,
    // batch cost 100/150 cycles, greedy dispatch: each request goes
    // out alone at its arrival and finishes 100 cycles later.
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 150.0}), uniformConfig(1000.0, 4, 2, 0));
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_DOUBLE_EQ(r.meanBatch, 1.0);
    EXPECT_EQ(r.makespanCycles, 4100u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 100.0);
    EXPECT_DOUBLE_EQ(r.utilization, 400.0 / 4100.0);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 4.0 * 1e9 / 4100.0);
}

TEST(ServingSim, TimeoutHoldsTheHeadToFillBatches)
{
    // Same trace with a 1000-cycle timeout: request 0 waits for
    // request 1 (deadline and fill coincide at 2000), so the fleet
    // runs two batches of two. Latencies are {1150, 150} per batch;
    // the log-spaced histogram reports conservative bucket bounds.
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 150.0}),
        uniformConfig(1000.0, 4, 2, 1000));
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_DOUBLE_EQ(r.meanBatch, 2.0);
    EXPECT_EQ(r.makespanCycles, 4150u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 650.0);
    EXPECT_DOUBLE_EQ(r.utilization, 300.0 / 4150.0);
    // 150 lands in the two-wide bucket [150, 151]; 1150 in the
    // sixteen-wide bucket [1136, 1151].
    EXPECT_EQ(r.p50Cycles, 151u);
    EXPECT_EQ(r.p95Cycles, 1151u);
    EXPECT_EQ(r.p99Cycles, 1151u);
}

TEST(ServingSim, FleetSharesLoadAcrossInstances)
{
    // Cost 3000 > gap 1000 saturates one instance; two instances
    // alternate (earliest-free, lowest id on ties) and every request
    // still dispatches alone with maxBatch = 1.
    ServingConfig config = uniformConfig(1000.0, 4, 1, 0);
    config.instances = 2;
    ServingReport r =
        simulateServing(syntheticCurve({3000.0}), config);
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_EQ(r.makespanCycles, 8000u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles,
                     (3000.0 + 3000.0 + 4000.0 + 4000.0) / 4.0);
    EXPECT_DOUBLE_EQ(r.utilization, 12000.0 / (2.0 * 8000.0));
}

TEST(ServingSim, SubCycleCostsChargeAtLeastOneCycle)
{
    ServingReport r = simulateServing(syntheticCurve({0.2}),
                                      uniformConfig(10.0, 2, 1, 0));
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_EQ(r.makespanCycles, 21u);
}

TEST(ServingSimDeathTest, RejectsDegenerateConfigs)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig config = uniformConfig(1000.0, 4, 2, 0);
    EXPECT_DEATH(simulateServing(curve, config), "maxBatch");
    ServingConfig no_instances = uniformConfig(1000.0, 4, 1, 0);
    no_instances.instances = 0;
    EXPECT_DEATH(simulateServing(curve, no_instances), "instance");
    ServingConfig no_requests = uniformConfig(1000.0, 1, 1, 0);
    no_requests.requests = 0;
    EXPECT_DEATH(simulateServing(curve, no_requests), "request");
}

ServingSweepOptions
smokeOptions(int threads)
{
    ServingSweepOptions options;
    options.threads = threads;
    options.sample.maxUnits = 2;
    options.offeredPerSecond = {1e4, 1e7};
    options.serving.requests = 32;
    options.serving.policy.maxBatch = 4;
    options.serving.policy.timeoutCycles = 1000000;
    options.serving.arrival.seed = options.seed;
    return options;
}

TEST(ServingSweep, CsvByteIdenticalAcrossThreadsAndCache)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    auto serial = runServingSweep(networks, grid,
                                  models::builtinEngines(),
                                  smokeOptions(1));
    std::ostringstream serial_csv;
    writeServingCsv(serial_csv, serial);

    auto parallel = runServingSweep(networks, grid,
                                    models::builtinEngines(),
                                    smokeOptions(4));
    std::ostringstream parallel_csv;
    writeServingCsv(parallel_csv, parallel);
    EXPECT_EQ(serial_csv.str(), parallel_csv.str());

    ServingSweepOptions uncached = smokeOptions(4);
    uncached.cache = false;
    auto no_cache = runServingSweep(networks, grid,
                                    models::builtinEngines(),
                                    uncached);
    std::ostringstream no_cache_csv;
    writeServingCsv(no_cache_csv, no_cache);
    EXPECT_EQ(serial_csv.str(), no_cache_csv.str());
}

TEST(ServingSweep, ReportsFollowGridThenRateOrder)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"stripes", {}},
                                         {"dadn", {}}};
    auto reports = runServingSweep(networks, grid,
                                   models::builtinEngines(),
                                   smokeOptions(1));
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].engineName, "Stripes");
    EXPECT_DOUBLE_EQ(reports[0].offeredPerSecond, 1e4);
    EXPECT_EQ(reports[1].engineName, "Stripes");
    EXPECT_DOUBLE_EQ(reports[1].offeredPerSecond, 1e7);
    EXPECT_EQ(reports[2].engineName, "DaDN");
    EXPECT_EQ(reports[3].engineName, "DaDN");

    std::ostringstream csv;
    writeServingCsv(csv, reports);
    std::istringstream lines(csv.str());
    std::string header, row;
    std::getline(lines, header);
    EXPECT_EQ(header.rfind("network,engine,arrival,offered_per_s", 0),
              0u);
    std::getline(lines, row);
    EXPECT_EQ(row.rfind("Tiny,Stripes,poisson,10000,", 0), 0u);
}

TEST(ServingSweep, SaturationFillsBatchesAndStarvationDoesNot)
{
    // At an offered load far above capacity every dispatch fills the
    // batch cap; far below it (with a finite timeout) the dispatcher
    // times out and sends singletons.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    ServingSweepOptions options = smokeOptions(1);
    options.offeredPerSecond = {1.0, 1e9};
    options.serving.policy.timeoutCycles = 10;
    auto reports = runServingSweep(networks, grid,
                                   models::builtinEngines(), options);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_DOUBLE_EQ(reports[0].meanBatch, 1.0);
    EXPECT_DOUBLE_EQ(reports[1].meanBatch, 4.0);
    EXPECT_GT(reports[1].utilization, reports[0].utilization);
}

/**
 * Test oracle: the perfect-fleet pull loop. It walks the trace in
 * arrival order and sends each batch to the earliest-free instance
 * (lowest id on ties) at dispatchCycle(), taking every request that
 * has arrived by the launch, up to the batch cap. simulateServing's
 * event loop must reproduce it field for field whenever faults, the
 * queue cap and the watermark are off.
 */
ServingReport
pullLoop(const BatchCostCurve &curve, const ServingConfig &config)
{
    const std::vector<uint64_t> arrivals =
        gapSums(config.arrival, config.requests);
    const size_t n = arrivals.size();
    const size_t max_batch =
        static_cast<size_t>(config.policy.maxBatch);

    std::vector<uint64_t> free_at(
        static_cast<size_t>(config.instances), 0);
    util::Histogram latencies = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    uint64_t makespan = 0;
    double busy_cycles = 0.0;
    int64_t dispatches = 0;

    size_t k = 0;
    while (k < n) {
        size_t j = 0;
        for (size_t i = 1; i < free_at.size(); i++)
            if (free_at[i] < free_at[j])
                j = i;

        const uint64_t head = arrivals[k];
        const size_t fill_idx = k + max_batch - 1;
        const uint64_t fill =
            fill_idx < n ? arrivals[fill_idx] : kNeverFills;
        const uint64_t start =
            dispatchCycle(config.policy, free_at[j], head, fill);

        size_t take = 1;
        while (take < max_batch && k + take < n &&
               arrivals[k + take] <= start)
            take++;

        const uint64_t cost_cycles = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::llround(curve.batchSystemCycles[take - 1])));
        const uint64_t done = start + cost_cycles;
        for (size_t r = k; r < k + take; r++)
            latencies.add(done - arrivals[r]);
        busy_cycles += static_cast<double>(cost_cycles);
        free_at[j] = done;
        makespan = std::max(makespan, done);
        dispatches++;
        k += take;
    }

    ServingReport report;
    report.dispatches = dispatches;
    report.meanBatch = static_cast<double>(config.requests) /
                       static_cast<double>(dispatches);
    report.p50Cycles = latencies.percentile(0.50);
    report.p95Cycles = latencies.percentile(0.95);
    report.p99Cycles = latencies.percentile(0.99);
    report.meanLatencyCycles = latencies.mean();
    report.imagesPerSecond = static_cast<double>(config.requests) *
                             kCyclesPerSecond /
                             static_cast<double>(makespan);
    report.utilization =
        busy_cycles / (static_cast<double>(config.instances) *
                       static_cast<double>(makespan));
    report.makespanCycles = makespan;
    report.completed = config.requests;
    return report;
}

TEST(ServingSim, FaultFreeLoopMatchesPullLoopOracle)
{
    // With the fault layer off the event loop must reproduce the
    // pull loop field for field (exact doubles included) — this is
    // what keeps the committed serving goldens byte-identical. The
    // grid spans light load, saturation (a one-cycle gap), greedy
    // and timeout dispatch, and both arrival processes.
    BatchCostCurve curve =
        syntheticCurve({7000.0, 13000.0, 18000.0, 22000.0, 25500.0,
                        28000.0, 30000.0, 31500.0});
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Uniform}) {
      for (int instances : {1, 3}) {
        for (int max_batch : {1, 4, 8}) {
          for (uint64_t timeout : {uint64_t{0}, uint64_t{100000}}) {
            for (double gap : {1.0, 500.0, 20000.0}) {
                ServingConfig config;
                config.arrival.kind = kind;
                config.arrival.meanGapCycles = gap;
                config.requests = 200;
                config.instances = instances;
                config.policy.maxBatch = max_batch;
                config.policy.timeoutCycles = timeout;
                ServingReport oracle = pullLoop(curve, config);
                ServingReport loop = simulateServing(curve, config);
                SCOPED_TRACE(std::string(arrivalKindName(kind)) + " " +
                             std::to_string(instances) + "x" +
                             std::to_string(max_batch) + " t" +
                             std::to_string(timeout) + " g" +
                             std::to_string(gap));
                EXPECT_FALSE(loop.degraded);
                EXPECT_EQ(loop.dispatches, oracle.dispatches);
                EXPECT_EQ(loop.meanBatch, oracle.meanBatch);
                EXPECT_EQ(loop.p50Cycles, oracle.p50Cycles);
                EXPECT_EQ(loop.p95Cycles, oracle.p95Cycles);
                EXPECT_EQ(loop.p99Cycles, oracle.p99Cycles);
                EXPECT_EQ(loop.meanLatencyCycles,
                          oracle.meanLatencyCycles);
                EXPECT_EQ(loop.imagesPerSecond, oracle.imagesPerSecond);
                EXPECT_EQ(loop.utilization, oracle.utilization);
                EXPECT_EQ(loop.makespanCycles, oracle.makespanCycles);
                EXPECT_EQ(loop.completed, oracle.completed);
                EXPECT_EQ(loop.retries, 0);
                EXPECT_EQ(loop.shedRequests, 0);
                EXPECT_DOUBLE_EQ(loop.availability, 1.0);
            }
          }
        }
      }
    }
}

ServingConfig
faultedConfig(double gap, int requests, uint64_t mtbf, uint64_t mttr)
{
    ServingConfig config = uniformConfig(gap, requests, 1, 0);
    config.faults.mtbfCycles = mtbf;
    config.faults.mttrCycles = mttr;
    config.faults.kind = FaultKind::Fixed;
    config.retry.backoffBaseCycles = 0;
    return config;
}

TEST(ServingFaults, FixedFaultKillsBatchAndRetrySucceeds)
{
    // Arrivals at 1000/2000, cost 100, greedy batch-1 dispatch; the
    // instance fail-stops at exactly 1050 (mid-batch) and repairs at
    // 1150. Request 0's first attempt dies, its zero-backoff retry
    // launches at the repair and completes at 1250 (latency 250);
    // request 1 runs cleanly (latency 100).
    ServingReport r = simulateServing(
        syntheticCurve({100.0}), faultedConfig(1000.0, 2, 1050, 100));
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.killedBatches, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.instanceFailures, 1);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.shedRequests, 0);
    EXPECT_EQ(r.makespanCycles, 2100u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 175.0);
    // Interrupted work counts as busy up to the kill: 50 cycles of
    // the doomed attempt plus two clean 100-cycle batches.
    EXPECT_DOUBLE_EQ(r.utilization, 250.0 / 2100.0);
    // Up over [0, 1050) and [1150, 2100).
    EXPECT_DOUBLE_EQ(r.availability, 2000.0 / 2100.0);
    // Latency 250 of the killed-and-retried request, conservative
    // log-bucket bound 251.
    EXPECT_EQ(r.p99FaultedCycles, 251u);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 2.0 * 1e9 / 2100.0);
}

TEST(ServingFaults, RetryBudgetExhaustionIsAPermanentFailure)
{
    // The instance fails at 50/110/170 (up 50, repair 10) and the
    // single request's attempts launch at 10/60/120 — each killed
    // mid-flight. After maxRetries = 2 requeues the third kill is a
    // permanent failure.
    ServingConfig config = faultedConfig(10.0, 1, 50, 10);
    config.retry.maxRetries = 2;
    ServingReport r =
        simulateServing(syntheticCurve({100.0}), config);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.killedBatches, 3);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.instanceFailures, 3);
    EXPECT_EQ(r.completed, 0);
    EXPECT_EQ(r.permanentFailures, 1);
    EXPECT_EQ(r.makespanCycles, 170u);
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 0.0);
    // Killed attempts ran [10,50), [60,110), [120,170).
    EXPECT_DOUBLE_EQ(r.utilization, 140.0 / 170.0);
    // Up over [0,50), [60,110), [120,170).
    EXPECT_DOUBLE_EQ(r.availability, 150.0 / 170.0);
}

TEST(ServingFaults, SameCycleRetryOutranksAFreshArrivalWithALargerId)
{
    // Arrivals at 1000/2000/3000, cost 1500, greedy batch-1, one
    // instance failing at 3000 and 6500 with repair done at 3500.
    // Request 0 runs [1000, 2500). Request 1 launches at 2500 and is
    // killed at 3000, the cycle request 2 arrives: both enter the
    // queue at 3000, and the retry's lower id puts it first. So at
    // the repair request 1 runs [3500, 5000) (latency 3000) and
    // request 2 runs [5000, 6500) (latency 3500), completing just
    // before the 6500 fail-stop. The reverse order would make the
    // retried request's latency 4500.
    ServingReport r = simulateServing(
        syntheticCurve({1500.0}), faultedConfig(1000.0, 3, 3000, 500));
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_EQ(r.killedBatches, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.instanceFailures, 2);
    EXPECT_EQ(r.completed, 3);
    EXPECT_EQ(r.makespanCycles, 6500u);
    // Latencies 1500, 3000, 3500.
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 8000.0 / 3.0);
    // 3000 lands in the bucket [2976, 3007], 3500 in [3488, 3519].
    EXPECT_EQ(r.p50Cycles, 3007u);
    EXPECT_EQ(r.p99Cycles, 3519u);
    EXPECT_EQ(r.p99FaultedCycles, 3007u);
    // Busy 1500 + 500 (killed) + 1500 + 1500; up all but [3000, 3500).
    EXPECT_DOUBLE_EQ(r.utilization, 5000.0 / 6500.0);
    EXPECT_DOUBLE_EQ(r.availability, 6000.0 / 6500.0);
}

TEST(ServingFaults, RetryQueuesBehindOlderFreshArrivals)
{
    // Arrivals at 400/800, cost 1200, greedy batch-1, one instance
    // up for 1500 cycles at a time with 100-cycle repairs (fail-stops
    // at 1500, 3100, 4700). Request 0 runs from 400 and is killed at
    // 1500; request 1 has waited since 800, so it leads the queue and
    // the retry (entered at 1500) follows despite its lower id.
    // Request 1 runs [1600, 2800) (latency 2000). Request 0 then runs
    // from 2800, is killed again at 3100, and finally runs
    // [3200, 4400) (latency 4000). Retry-first would have given
    // request 0 latency 2400 and request 1 latency 3600.
    ServingReport r = simulateServing(
        syntheticCurve({1200.0}), faultedConfig(400.0, 2, 1500, 100));
    EXPECT_EQ(r.dispatches, 4);
    EXPECT_EQ(r.killedBatches, 2);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.instanceFailures, 2);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.makespanCycles, 4400u);
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 3000.0);
    // 2000 lands in the bucket [1984, 2015], 4000 in [4000, 4031].
    EXPECT_EQ(r.p50Cycles, 2015u);
    EXPECT_EQ(r.p99FaultedCycles, 4031u);
    // Busy 1100 + 1200 + 300 + 1200; up all but two 100-cycle repairs.
    EXPECT_DOUBLE_EQ(r.utilization, 3800.0 / 4400.0);
    EXPECT_DOUBLE_EQ(r.availability, 4200.0 / 4400.0);
}

TEST(ServingFaults, RetryAfterAShedKeepsItsTraceId)
{
    // Arrivals every 300 cycles, cost 1000, batch-1, queue bound 2:
    // request 3 (at 1200) finds requests 1 and 2 queued and sheds, so
    // request 4 (at 1500) queues right behind request 2. It runs from
    // 3300 and dies in the fail-stop at 3800; its retry waits the
    // backoff of request id 4 — not 3, the next id before the shed —
    // and then runs to the makespan.
    ServingConfig config = faultedConfig(300.0, 5, 3800, 50);
    config.queueCap = 2;
    config.retry.backoffBaseCycles = 100;
    const uint64_t backoff =
        retryBackoffCycles(config.retry, config.faults.seed, 4, 1);
    ASSERT_NE(backoff,
              retryBackoffCycles(config.retry, config.faults.seed, 3, 1));
    ASSERT_GE(backoff, 50u); // The retry comes after the repair.
    ServingReport r =
        simulateServing(syntheticCurve({1000.0}), config);
    EXPECT_EQ(r.shedRequests, 1);
    EXPECT_EQ(r.killedBatches, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.completed, 4);
    EXPECT_EQ(r.dispatches, 5);
    EXPECT_EQ(r.makespanCycles, 3800 + backoff + 1000);
}

TEST(ServingFaults, RetryReentersAfterItsTraceBlockIsFreed)
{
    // Arrivals every 100 cycles, cost 10, greedy batch-1 on one
    // instance that fail-stops every ~1M cycles for 10. Only the first
    // fail-stop, at 1000005, catches a batch: request 9999's, which
    // arrived at 1000000 in the trace's first block. Its retry waits
    // a backoff of millions of cycles, so it re-enters long after the
    // fleet read past that block and the trace freed it; its latency
    // still counts from its own arrival.
    const int n = 3 * kBlock + 5;
    const uint64_t mtbf = 1000005;
    const uint64_t mttr = 10;
    ServingConfig config = faultedConfig(100.0, n, mtbf, mttr);
    config.retry.backoffBaseCycles = 1560000;
    const uint64_t ready =
        mtbf + retryBackoffCycles(config.retry, config.faults.seed, 9999, 1);
    const uint64_t last_done = 100 * static_cast<uint64_t>(n) + 10;
    ASSERT_GT(ready, 100 * static_cast<uint64_t>(kBlock + 1));
    ASSERT_LT(ready, last_done);
    // The retry launches on arrival into an idle, healthy instance.
    ASSERT_GE(ready % 100, 10u);
    ASSERT_LE(ready % 100, 80u);
    for (uint64_t k = 2; k <= 4; k++) {
        const uint64_t fail = k * mtbf + (k - 1) * mttr;
        ASSERT_TRUE(ready + 20 < fail || ready > fail + mttr + 20) << k;
    }
    ServingReport r = simulateServing(syntheticCurve({10.0}), config);
    EXPECT_EQ(r.killedBatches, 1);
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(r.instanceFailures, 4);
    EXPECT_EQ(r.completed, n);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.dispatches, n + 1);
    EXPECT_EQ(r.makespanCycles, last_done);
    const double retried = static_cast<double>(ready + 10 - 1000000);
    EXPECT_EQ(r.meanLatencyCycles,
              (10.0 * (n - 1) + retried) / static_cast<double>(n));
    EXPECT_GE(r.p99FaultedCycles, ready + 10 - 1000000);
    // Busy: every batch's 10 cycles plus the 5 the kill cut short.
    EXPECT_DOUBLE_EQ(r.utilization, (10.0 * n + 5.0) /
                                        static_cast<double>(last_done));
}

TEST(ServingDegrade, QueueCapShedsArrivalsAtTheBound)
{
    // Arrivals at 100..400, cost 1000, batch-1 greedy, queue bound 1:
    // request 0 dispatches at once, request 1 queues, requests 2 and
    // 3 find the queue full and shed.
    ServingConfig config = uniformConfig(100.0, 4, 1, 0);
    config.queueCap = 1;
    ServingReport r =
        simulateServing(syntheticCurve({1000.0}), config);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 2);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.shedRequests, 2);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.permanentFailures, 0);
    EXPECT_EQ(r.makespanCycles, 2100u);
    // Latencies 1000 (request 0) and 1900 (request 1).
    EXPECT_DOUBLE_EQ(r.meanLatencyCycles, 1450.0);
    EXPECT_DOUBLE_EQ(r.utilization, 2000.0 / 2100.0);
    EXPECT_DOUBLE_EQ(r.availability, 1.0);
    // Goodput counts only completions.
    EXPECT_DOUBLE_EQ(r.imagesPerSecond, 2.0 * 1e9 / 2100.0);
}

TEST(ServingDegrade, WatermarkHalvesBatchesAndGoesGreedy)
{
    // Six arrivals 10..60 at gap 10, flat cost 100 for batches 1..4,
    // timeout 10000. Un-degraded the dispatcher would hold for full
    // batches of 4; with the watermark at queue occupancy 2 it flips
    // to greedy half batches, so the fleet runs three batches of two
    // back to back.
    ServingConfig config = uniformConfig(10.0, 6, 4, 10000);
    config.degradeWatermark = 2;
    ServingReport r = simulateServing(
        syntheticCurve({100.0, 100.0, 100.0, 100.0}), config);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.dispatches, 3);
    EXPECT_EQ(r.degradedDispatches, 3);
    EXPECT_DOUBLE_EQ(r.meanBatch, 2.0);
    EXPECT_EQ(r.completed, 6);
    EXPECT_EQ(r.shedRequests, 0);
    EXPECT_EQ(r.makespanCycles, 320u);
}

TEST(ServingCsv, DegradedColumnsAppearOnlyWhenConfigured)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig plain = uniformConfig(1000.0, 2, 1, 0);

    std::ostringstream plain_csv;
    writeServingCsv(plain_csv, {simulateServing(curve, plain)});
    EXPECT_EQ(plain_csv.str().find("mtbf_cycles"), std::string::npos);

    ServingConfig capped = plain;
    capped.queueCap = 16;
    std::ostringstream degraded_csv;
    writeServingCsv(degraded_csv, {simulateServing(curve, capped)});
    const std::string out = degraded_csv.str();
    EXPECT_NE(out.find("mtbf_cycles"), std::string::npos);
    EXPECT_NE(out.find("availability"), std::string::npos);
    EXPECT_NE(out.find("p99_faulted_cycles"), std::string::npos);
    // One degraded report flips the whole dump (a CSV has one
    // header), so mixed report sets stay rectangular.
    std::ostringstream mixed_csv;
    writeServingCsv(mixed_csv, {simulateServing(curve, plain),
                                simulateServing(curve, capped)});
    EXPECT_NE(mixed_csv.str().find("mtbf_cycles"), std::string::npos);
}

std::string
servingCsv(const std::vector<ServingReport> &reports)
{
    std::ostringstream csv;
    writeServingCsv(csv, reports);
    return csv.str();
}

/** Tiny plus its fc-tailed variant under its own name. */
std::vector<dnn::Network>
twoSmallNetworks()
{
    dnn::Network tail = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    tail.name = "TinyAll";
    return {dnn::makeTinyNetwork(), tail};
}

/** @p options on a two-instance fleet with faults and a queue cap. */
ServingSweepOptions
faulted(ServingSweepOptions options)
{
    options.serving.faults.mtbfCycles = 2000000;
    options.serving.faults.mttrCycles = 500000;
    options.serving.queueCap = 8;
    options.serving.instances = 2;
    return options;
}

TEST(ServingSweep, FaultedCsvByteIdenticalAcrossThreadsAndCache)
{
    // Fault schedules are counter-based pure functions, so a faulted
    // sweep must stay byte-identical across worker counts and cache
    // modes just like the fault-free one.
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto grid = allKindsGrid();
    auto serial = runServingSweep(networks, grid,
                                  models::builtinEngines(),
                                  faulted(smokeOptions(1)));
    std::ostringstream serial_csv;
    writeServingCsv(serial_csv, serial);
    EXPECT_NE(serial_csv.str().find("mtbf_cycles"),
              std::string::npos);

    auto parallel = runServingSweep(networks, grid,
                                    models::builtinEngines(),
                                    faulted(smokeOptions(4)));
    std::ostringstream parallel_csv;
    writeServingCsv(parallel_csv, parallel);
    EXPECT_EQ(serial_csv.str(), parallel_csv.str());

    ServingSweepOptions uncached = faulted(smokeOptions(4));
    uncached.cache = false;
    auto no_cache = runServingSweep(networks, grid,
                                    models::builtinEngines(),
                                    uncached);
    std::ostringstream no_cache_csv;
    writeServingCsv(no_cache_csv, no_cache);
    EXPECT_EQ(serial_csv.str(), no_cache_csv.str());
}

TEST(ServingSweep, CsvByteIdenticalAcrossThreadMatrix)
{
    // Curve passes fan out per (cell, batch image) behind the prefetch
    // plan, and fleet loops per (curve, rate); no schedule may change
    // a byte. Memory is modeled so the batch prefixes differ in more
    // than their compute sum. The propagated input prefetches chains
    // and, for laconic, weight planes.
    struct Input
    {
        std::string name;
        std::vector<dnn::Network> networks;
        ServingSweepOptions options;
    };
    std::vector<Input> inputs;
    for (int max_batch : {1, 5}) {
        for (bool faults : {false, true}) {
            ServingSweepOptions base = smokeOptions(1);
            base.accel.memory = parseMemoryPreset("dadn");
            base.serving.policy.maxBatch = max_batch;
            if (faults)
                base = faulted(base);
            inputs.push_back({"max_batch=" + std::to_string(max_batch) +
                                  " faults=" + std::to_string(faults),
                              twoSmallNetworks(), base});
        }
    }
    ServingSweepOptions propagated = smokeOptions(1);
    propagated.activations = ActivationMode::Propagated;
    propagated.serving.policy.maxBatch = 3;
    inputs.push_back({"propagated max_batch=3",
                      {dnn::makeTinyNetwork(dnn::LayerSelect::All)},
                      propagated});

    const std::vector<EngineSelection> grid = {
        {"dadn", {}}, {"pragmatic", {}}, {"laconic", {}}};
    for (const Input &input : inputs) {
        const std::string serial = servingCsv(runServingSweep(
            input.networks, grid, models::builtinEngines(),
            input.options));
        // The last thread count exceeds the (cell, image) passes, so
        // the curve passes also split their layers.
        const int passes =
            static_cast<int>(input.networks.size() * grid.size()) *
            input.options.serving.policy.maxBatch;
        for (int threads : {1, 2, 3, 8, passes + 1}) {
            for (bool cache : {true, false}) {
                ServingSweepOptions options = input.options;
                options.threads = threads;
                options.cache = cache;
                EXPECT_EQ(serial,
                          servingCsv(runServingSweep(
                              input.networks, grid,
                              models::builtinEngines(), options)))
                    << input.name << " threads=" << threads
                    << " cache=" << cache;
            }
        }
    }
}

TEST(ServingSweep, SweepCellsEqualTheirCurveEntryAtTheirBatch)
{
    // runSweep at --batch=B and buildCostCurves at maxBatch=B fold the
    // same per-image passes two ways; a sweep cell's system cycles
    // must equal entry B-1 of its curve, serial and threaded.
    const std::vector<dnn::Network> networks = twoSmallNetworks();
    const std::vector<EngineSelection> grid = allKindsGrid();
    const int batch = 3;
    for (int threads : {1, 4}) {
        SweepOptions sweep;
        sweep.threads = threads;
        sweep.sample.maxUnits = 2;
        sweep.accel.memory = parseMemoryPreset("dadn");
        sweep.batch = batch;
        ServingSweepOptions serve = smokeOptions(threads);
        serve.accel = sweep.accel;
        serve.serving.policy.maxBatch = batch;
        const std::vector<NetworkResult> cells = runSweep(
            networks, grid, models::builtinEngines(), sweep);
        const std::vector<BatchCostCurve> curves = buildCostCurves(
            networks, grid, models::builtinEngines(), serve);
        ASSERT_EQ(cells.size(), curves.size());
        for (size_t c = 0; c < cells.size(); c++) {
            EXPECT_EQ(cells[c].networkName, curves[c].networkName);
            EXPECT_EQ(cells[c].engineName, curves[c].engineName);
            ASSERT_EQ(curves[c].batchSystemCycles.size(),
                      static_cast<size_t>(batch));
            EXPECT_EQ(cells[c].totalSystemCycles(),
                      curves[c].batchSystemCycles[batch - 1])
                << cells[c].networkName << " " << cells[c].engineName
                << " threads=" << threads;
        }
    }
}

TEST(ServingSweep, FannedCurvesEqualBuildBatchCostCurve)
{
    const std::vector<dnn::Network> networks = twoSmallNetworks();
    const std::vector<EngineSelection> grid = allKindsGrid();
    ServingSweepOptions options = smokeOptions(4);
    options.accel.memory = parseMemoryPreset("dadn");
    options.serving.policy.maxBatch = 5;
    const std::vector<BatchCostCurve> curves = buildCostCurves(
        networks, grid, models::builtinEngines(), options);
    ASSERT_EQ(curves.size(), networks.size() * grid.size());

    for (size_t n = 0; n < networks.size(); n++) {
        dnn::ActivationSynthesizer synth(networks[n], options.seed);
        WorkloadSource source(synth);
        for (size_t e = 0; e < grid.size(); e++) {
            auto engine = models::builtinEngines().create(grid[e]);
            const BatchCostCurve serial = buildBatchCostCurve(
                networks[n], *engine, source, options.accel,
                options.sample, util::InnerExecutor(), 5);
            const BatchCostCurve &fanned =
                curves[n * grid.size() + e];
            EXPECT_EQ(fanned.networkName, serial.networkName);
            EXPECT_EQ(fanned.engineName, serial.engineName);
            ASSERT_EQ(fanned.batchSystemCycles.size(), 5u);
            for (size_t b = 0; b < 5; b++)
                EXPECT_EQ(fanned.batchSystemCycles[b],
                          serial.batchSystemCycles[b])
                    << serial.networkName << " " << serial.engineName
                    << " b=" << b + 1;
        }
    }
}

TEST(ServingSweep, PlayOnceBuiltCurvesEqualsSweep)
{
    // Curves do not depend on the fleet config, so one build serves
    // every fault intensity (bench_serving_capacity relies on this).
    const std::vector<dnn::Network> networks = twoSmallNetworks();
    const std::vector<EngineSelection> grid = {{"stripes", {}},
                                               {"pragmatic", {}}};
    ServingSweepOptions light = faulted(smokeOptions(3));
    ServingSweepOptions heavy = light;
    heavy.serving.faults.mtbfCycles = 300000;
    heavy.serving.faults.mttrCycles = 30000;
    heavy.serving.faults.kind = FaultKind::Fixed;
    heavy.serving.retry.maxRetries = 1;

    const std::vector<BatchCostCurve> curves = buildCostCurves(
        networks, grid, models::builtinEngines(), light);
    for (const ServingSweepOptions &options : {light, heavy}) {
        const std::string played =
            servingCsv(playServing(curves, options));
        EXPECT_NE(played.find("mtbf_cycles"), std::string::npos);
        EXPECT_EQ(played,
                  servingCsv(runServingSweep(networks, grid,
                                             models::builtinEngines(),
                                             options)));
    }
    EXPECT_NE(servingCsv(playServing(curves, light)),
              servingCsv(playServing(curves, heavy)));
}

/** Each (curve, rate) played alone, in playServing's report order. */
std::vector<ServingReport>
loneReports(const std::vector<BatchCostCurve> &curves,
            const ServingSweepOptions &options)
{
    std::vector<ServingReport> reports;
    for (const BatchCostCurve &curve : curves)
        for (double rate : options.offeredPerSecond) {
            ServingConfig config = options.serving;
            config.arrival.meanGapCycles = kCyclesPerSecond / rate;
            reports.push_back(simulateServing(curve, config));
        }
    return reports;
}

TEST(ServingSweep, RoundsEqualLoneFleetsAcrossBlockBounds)
{
    // playServing's fleets of one rate read one shared trace, drawn a
    // block at a time and freed behind the slowest fleet, and a round
    // groups rates by the worker count. None of it may move a byte:
    // each report equals its fleet played alone, at trace lengths
    // around the block bounds, fault-free (also against the pull
    // loop), saturated (every queue lags the whole trace), and
    // faulted with a queue cap and a watermark. Two curves at three
    // workers make rounds of two rates.
    const std::vector<BatchCostCurve> curves = {
        syntheticCurve({700.0, 1000.0, 1200.0, 1300.0}),
        syntheticCurve({2500.0, 3000.0, 3400.0, 3600.0})};
    ServingSweepOptions fault_free;
    fault_free.serving.instances = 2;
    fault_free.serving.policy = {4, 2000};
    fault_free.offeredPerSecond = {2e5, 1e6, 4e6};
    ServingSweepOptions saturated = fault_free;
    saturated.offeredPerSecond = {5e7, 1e8, 1e9};
    ServingSweepOptions chaos = fault_free;
    chaos.serving.faults.mtbfCycles = 200000;
    chaos.serving.faults.mttrCycles = 20000;
    chaos.serving.queueCap = 64;
    chaos.serving.degradeWatermark = 16;
    chaos.serving.retry = {2, 1000};
    const std::pair<const char *, ServingSweepOptions> scenarios[] = {
        {"fault-free", fault_free},
        {"saturated", saturated},
        {"faulted", chaos}};
    for (int count : kBlockCounts) {
        for (const auto &[name, base] : scenarios) {
            SCOPED_TRACE(std::string(name) + " x " + std::to_string(count));
            ServingSweepOptions options = base;
            options.serving.requests = count;
            const std::vector<ServingReport> lone =
                loneReports(curves, options);
            if (!options.serving.queueCap) {
                for (size_t slot = 0; slot < lone.size(); slot++) {
                    ServingConfig config = options.serving;
                    config.arrival.meanGapCycles =
                        kCyclesPerSecond / options.offeredPerSecond[slot % 3];
                    const ServingReport oracle =
                        pullLoop(curves[slot / 3], config);
                    EXPECT_EQ(lone[slot].dispatches, oracle.dispatches);
                    EXPECT_EQ(lone[slot].meanLatencyCycles,
                              oracle.meanLatencyCycles);
                    EXPECT_EQ(lone[slot].makespanCycles,
                              oracle.makespanCycles);
                }
            }
            const std::string expected = servingCsv(lone);
            for (int threads : {1, 3, 4}) {
                options.threads = threads;
                EXPECT_EQ(servingCsv(playServing(curves, options)),
                          expected)
                    << "threads=" << threads;
            }
        }
    }
}

TEST(ServingSweep, BatchWiderThanABlockPlansAcrossBlocks)
{
    // A fleet plans only with maxBatch arrivals drawn past its cursor,
    // so a batch cap wider than two blocks makes every plan wait for
    // several blocks; the reports still equal the pull loop's and the
    // lone fleets', serial and threaded.
    const int max_batch = 2 * kBlock + 7;
    std::vector<double> cycles;
    for (int b = 1; b <= max_batch; b++)
        cycles.push_back(1000.0 + b);
    const std::vector<BatchCostCurve> curves = {syntheticCurve(cycles)};
    ServingSweepOptions options;
    options.serving.policy = {max_batch, 100000000};
    options.serving.requests = 3 * kBlock + 5;
    options.offeredPerSecond = {1e8, 1e9};
    const std::vector<ServingReport> lone = loneReports(curves, options);
    for (size_t r = 0; r < lone.size(); r++) {
        ServingConfig config = options.serving;
        config.arrival.meanGapCycles =
            kCyclesPerSecond / options.offeredPerSecond[r];
        const ServingReport oracle = pullLoop(curves[0], config);
        EXPECT_EQ(lone[r].dispatches, oracle.dispatches);
        EXPECT_EQ(lone[r].meanBatch, oracle.meanBatch);
        EXPECT_EQ(lone[r].meanLatencyCycles, oracle.meanLatencyCycles);
        EXPECT_EQ(lone[r].makespanCycles, oracle.makespanCycles);
    }
    EXPECT_GT(lone[0].meanBatch, static_cast<double>(kBlock));
    for (int threads : {1, 3}) {
        options.threads = threads;
        EXPECT_EQ(servingCsv(playServing(curves, options)),
                  servingCsv(lone))
            << "threads=" << threads;
    }
}

TEST(ServingFaultsDeathTest, RejectsDegenerateDegradedConfigs)
{
    BatchCostCurve curve = syntheticCurve({100.0});
    ServingConfig faulted = uniformConfig(1000.0, 2, 1, 0);
    faulted.faults.mtbfCycles = 1000;
    faulted.faults.mttrCycles = 0;
    EXPECT_DEATH(simulateServing(curve, faulted), "repair time");
    ServingConfig bad_cap = uniformConfig(1000.0, 2, 1, 0);
    bad_cap.queueCap = -1;
    EXPECT_DEATH(simulateServing(curve, bad_cap), "queue cap");
    ServingConfig bad_mark = uniformConfig(1000.0, 2, 1, 0);
    bad_mark.degradeWatermark = -2;
    EXPECT_DEATH(simulateServing(curve, bad_mark), "watermark");
    ServingConfig bad_retry = uniformConfig(1000.0, 2, 1, 0);
    bad_retry.retry.maxRetries = -1;
    EXPECT_DEATH(simulateServing(curve, bad_retry), "retry limit");
}

TEST(ServingSweep, ParseOfferedRatesReadsTheTrafficList)
{
    EXPECT_EQ(parseOfferedRates("1000,,2.5e4"),
              (std::vector<double>{1000.0, 25000.0}));
}

TEST(ServingSweepDeathTest, ParseOfferedRatesRejectsBadLists)
{
    EXPECT_EXIT(parseOfferedRates(","), ::testing::ExitedWithCode(1),
                "lists no rates");
    EXPECT_EXIT(parseOfferedRates("10,0"), ::testing::ExitedWithCode(1),
                "got '0'");
    EXPECT_EXIT(parseOfferedRates("2e9"), ::testing::ExitedWithCode(1),
                "up to 1e9");
    EXPECT_EXIT(parseOfferedRates("5x"), ::testing::ExitedWithCode(1),
                "got '5x'");
}

TEST(ServingSweepDeathTest, RejectsOutOfRangeRates)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    ServingSweepOptions zero_rate = smokeOptions(1);
    zero_rate.offeredPerSecond = {0.0};
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(), zero_rate),
                 "offered rate");
    ServingSweepOptions no_rates = smokeOptions(1);
    no_rates.offeredPerSecond.clear();
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(), no_rates),
                 "no offered rates");
}

TEST(ServingSweepDeathTest, RejectsBadConfigBeforeBuildingCurves)
{
    // The config is checked on the calling thread before any curve
    // is built. A layerless network panics as soon as its curve
    // starts, so dying with the config's message proves the order.
    dnn::Network layerless;
    layerless.name = "Layerless";
    std::vector<dnn::Network> networks = {layerless};
    std::vector<EngineSelection> grid = {{"dadn", {}}};
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(),
                                 smokeOptions(4)),
                 "invalid network");
    ServingSweepOptions bad_cap = smokeOptions(4);
    bad_cap.serving.queueCap = -1;
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(), bad_cap),
                 "queue cap");
    ServingSweepOptions no_instances = smokeOptions(4);
    no_instances.serving.instances = 0;
    EXPECT_DEATH(runServingSweep(networks, grid,
                                 models::builtinEngines(),
                                 no_instances),
                 "instance");
}

TEST(ServingSweepDeathTest, RejectsTracesPastTheArrivalClock)
{
    // At 1e-9 images/s, 64 requests arrive ~1e18 cycles apart and
    // the uint64 arrival clock would wrap; the flags fail before a
    // simulation starts. The slowest of several rates governs.
    auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "prog");
        return util::ArgParser(static_cast<int>(argv.size()),
                               argv.data());
    };
    ServingSweepOptions options;
    EXPECT_EXIT(parseServingFlags(parse({"--smoke", "--traffic=1e-9"}),
                                  "1", options),
                ::testing::ExitedWithCode(1), "past 2\\^63 cycles");
    EXPECT_EXIT(parseServingFlags(parse({"--traffic=1000,1e-9",
                                         "--requests=64"}),
                                  "1", options),
                ::testing::ExitedWithCode(1), "--traffic=1e-09");
    // 1e-6 with the smoke trace stays inside the bound and serves
    // every request.
    parseServingFlags(parse({"--smoke", "--traffic=1e-6"}), "1", options);
    options.sample.maxUnits = 2;
    auto reports = runServingSweep({dnn::makeTinyNetwork()},
                                   {{"dadn", {}}},
                                   models::builtinEngines(), options);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].requests, 64);
    EXPECT_EQ(reports[0].completed, 64);
}

TEST(ServingSweepDeathTest, BoundsTheFleetSize)
{
    // The planner scans every instance on each dispatch, so a fleet
    // past 4096 is a flag error, caught before any instance exists.
    auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "prog");
        return util::ArgParser(static_cast<int>(argv.size()),
                               argv.data());
    };
    ServingSweepOptions options;
    EXPECT_EXIT(parseServingFlags(parse({"--smoke", "--instances=4097"}),
                                  "1", options),
                ::testing::ExitedWithCode(1), "at most 4096");
    EXPECT_EXIT(parseServingFlags(
                    parse({"--smoke", "--instances=2147483647"}), "1",
                    options),
                ::testing::ExitedWithCode(1), "at most 4096");
    parseServingFlags(parse({"--smoke", "--instances=4096"}), "1",
                      options);
    EXPECT_EQ(options.serving.instances, 4096);
}

} // namespace
} // namespace sim
} // namespace pra
