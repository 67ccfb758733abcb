/**
 * @file
 * pra_serve: batched-serving capacity planning on the simulated
 * accelerator fleet.
 *
 *   pra_serve [--networks all|a,b] [--engines paper|all|spec,spec]
 *             [--layers conv|fc|all]
 *             [--activations synthetic|propagated]
 *             [--memory off|ideal|preset]
 *             [--traffic R1,R2,...] [--arrival poisson|uniform]
 *             [--instances N] [--max-batch B] [--timeout CYCLES]
 *             [--requests N] [--threads N] [--cache on|off]
 *             [--units N | --full] [--seed S] [--csv FILE] [--smoke]
 *             [--mtbf CYCLES] [--mttr CYCLES]
 *             [--fault-dist exponential|fixed] [--fault-seed S]
 *             [--queue-cap N] [--retries N] [--backoff CYCLES]
 *             [--degrade-watermark N]
 *             [--list-engines] [--list-memory]
 *
 * For every (network, engine) cell pra_serve builds the batch cost
 * curve — the system cycles of batches of 1..--max-batch images,
 * priced by the same engines and (optionally) memory hierarchy the
 * sweep uses — then plays an event-driven fleet simulation against
 * each offered --traffic rate: --instances identical accelerators,
 * seeded --arrival request arrivals, and the max-batch + timeout
 * dispatch rule of src/sim/serving/batching.h. Reports stream as
 * CSV: p50/p95/p99 and mean latency (cycles), completed images/s and
 * utilization at the nominal 1 GHz clock, mean batch size, and the
 * trace makespan.
 *
 * "--traffic" lists offered loads in images per second (at 1 GHz);
 * one CSV row per (network, engine, rate). "--timeout" bounds, in
 * simulated cycles, how long a dispatcher holds the oldest waiting
 * request hoping to fill a batch (0 = dispatch greedily as soon as
 * an instance frees up). "--requests" sets the trace length.
 *
 * "--mtbf" enables deterministic fail-stop fault injection (mean
 * up-time in cycles; "--mttr" is the mean repair time, default
 * mtbf/10). "--mttr", "--fault-dist" and "--fault-seed" are fatal
 * without "--mtbf". A failing instance kills its in-flight batch;
 * the killed requests retry up to "--retries" times with
 * "--backoff"-scaled exponential backoff before counting as
 * permanent failures.
 * "--queue-cap" bounds the dispatch queue (arrivals beyond it shed);
 * "--degrade-watermark" switches the dispatcher to half batches and
 * greedy launches above that queue occupancy. Any of these adds the
 * degraded-serving CSV columns (availability, goodput vs the offered
 * column, retry/shed/kill counts, fault-conditioned p99); without
 * them the CSV shape is byte-identical to the historical goldens.
 * "--csv" writes through a temporary + rename, so a failed run never
 * tears a previously written file.
 *
 * The grid flags parse in sim/grid_flags.h and the serving flags
 * (--traffic through --requests) in parseServingFlags, shared with
 * pra_sweep and the serving bench.
 *
 * Determinism matches the sweep: cost curves are bit-identical
 * across --threads and --cache, arrivals are
 * counter-based in (seed, index), and each event loop is serial
 * and writes its own report — so the serving CSV is byte-identical
 * for any thread count, with the cache on or off (CI asserts this),
 * faulted or not: fault schedules are counter-based pure functions
 * of (--fault-seed, instance, event index).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "models/engines.h"
#include "sim/grid_flags.h"
#include "sim/serving/serving_sim.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/logging.h"

using namespace pra;

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    std::vector<std::string> known = sim::kGridFlags;
    known.insert(known.end(), sim::kServingFlags.begin(),
                 sim::kServingFlags.end());
    known.insert(known.end(),
                 {"engines", "csv", "list-engines", "list-memory",
                  "mtbf", "mttr", "fault-dist", "fault-seed",
                  "queue-cap", "retries", "backoff",
                  "degrade-watermark"});
    args.checkUnknown(known, &std::cout);
    if (sim::printListing(args, models::builtinEngines(), std::cout))
        return 0;

    sim::ServingSweepOptions options;
    std::vector<dnn::Network> networks =
        sim::parseGridFlags(args, options, 64, 4);
    std::vector<sim::EngineSelection> engines =
        models::parseEngineList(args.getString("engines", "paper"));
    // Degenerate serving parameters get loud rejections, not silent
    // empty simulations.
    sim::parseServingFlags(args, "10000", options);

    // --- Fault-injection / degraded-serving layer. Degenerate
    // --- values are loud, fatal rejections (CI pins them): an
    // --- explicit --mtbf=0 almost certainly meant "faults off", but
    // --- silently honoring it would mask a typo'd sweep axis.
    if (args.has("mtbf")) {
        int64_t mtbf = args.getInt("mtbf", 0);
        if (mtbf <= 0)
            util::fatal("--mtbf must be a positive mean up-time in "
                        "cycles (got " + std::to_string(mtbf) +
                        "); omit the flag to disable faults");
        options.serving.faults.mtbfCycles =
            static_cast<uint64_t>(mtbf);
    }
    // The repair time, distribution and seed only shape a fault
    // schedule; without --mtbf there is none, so naming them is a
    // mistake, not a no-op. Each dies after its own parse, so a bad
    // value still gets its own message.
    auto requireMtbf = [&args](const char *flag) {
        if (args.has(flag) && !args.has("mtbf"))
            util::fatal(std::string("--") + flag +
                        " requires --mtbf (faults are off without it)");
    };
    int64_t mttr = args.getInt(
        "mttr", static_cast<int64_t>(std::max<uint64_t>(
                    1, options.serving.faults.mtbfCycles / 10)));
    if (mttr <= 0)
        util::fatal("--mttr must be a positive mean repair time in "
                    "cycles (got " + std::to_string(mttr) + ")");
    requireMtbf("mttr");
    options.serving.faults.mttrCycles = static_cast<uint64_t>(mttr);
    options.serving.faults.kind = sim::parseFaultKind(
        args.getString("fault-dist", "exponential"));
    requireMtbf("fault-dist");
    int64_t fault_seed =
        args.getInt("fault-seed", static_cast<int64_t>(options.seed));
    if (fault_seed < 0)
        util::fatal("--fault-seed must be non-negative (got " +
                    std::to_string(fault_seed) + ")");
    requireMtbf("fault-seed");
    options.serving.faults.seed = static_cast<uint64_t>(fault_seed);
    if (args.has("queue-cap"))
        options.serving.queueCap = args.getCount(
            "queue-cap", 0, 1,
            "a positive queue bound; omit the flag for an unbounded "
            "queue");
    if (args.has("degrade-watermark"))
        options.serving.degradeWatermark = args.getCount(
            "degrade-watermark", 0, 1,
            "a positive queue occupancy; omit the flag to disable "
            "degradation");
    options.serving.retry.maxRetries =
        args.getCount("retries", 3, 0, "a non-negative retry budget");
    int64_t backoff = args.getInt("backoff", 1000);
    if (backoff < 0)
        util::fatal("--backoff must be a non-negative cycle count "
                    "(got " + std::to_string(backoff) + ")");
    options.serving.retry.backoffBaseCycles =
        static_cast<uint64_t>(backoff);

    std::vector<sim::ServingReport> reports = sim::runServingSweep(
        networks, engines, models::builtinEngines(), options);

    std::string csv_path = args.getString("csv", "");
    if (csv_path.empty()) {
        sim::writeServingCsv(std::cout, reports);
    } else {
        util::writeFileAtomic(csv_path, [&](std::ostream &out) {
            sim::writeServingCsv(out, reports);
        });
        std::fprintf(stderr, "wrote %zu serving rows to %s\n",
                     reports.size(), csv_path.c_str());
    }
    return 0;
}
