/**
 * @file
 * Serving-capacity bench: latency/throughput of the paper's engine
 * grid under batched serving at a sweep of offered loads.
 *
 * For every (network, engine) cell this builds the 1..--max-batch
 * batch cost curve (the FC filter amortization the batch-aware
 * memory model prices shows up here directly) and plays the
 * event-driven fleet simulation of src/sim/serving at each --traffic
 * rate, reporting p99 latency, delivered images/s, utilization and
 * the mean dispatched batch. A second, degraded-capacity table
 * replays the same design points under deterministic fail-stop
 * faults at each --mtbf-axis intensity (mttr = mtbf / 10) and
 * reports surviving availability, goodput, retries, and permanent
 * failures. The cost curves are built once, per batch image across
 * --threads workers, and every table plays them. The whole report is
 * bit-identical across thread counts and cache modes; CI
 * byte-compares the smoke run and records the --json digest as a
 * perf artifact (BENCH_serving.json).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "models/engines.h"
#include "sim/serving/serving_sim.h"
#include "util/table.h"

using namespace pra;

namespace {

/** Parse --mtbf-axis: comma-separated positive cycle counts. */
std::vector<uint64_t>
parseMtbfAxis(const std::string &list)
{
    std::vector<uint64_t> axis;
    for (const auto &item : util::splitList(list)) {
        long long cycles = 0;
        size_t parsed = 0;
        try {
            cycles = std::stoll(item, &parsed);
        } catch (...) {
            parsed = 0;
        }
        if (parsed != item.size() || cycles <= 0)
            util::fatal("--mtbf-axis entries must be positive "
                        "cycle counts (got '" + item + "')");
        axis.push_back(static_cast<uint64_t>(cycles));
    }
    if (axis.empty())
        util::fatal("--mtbf-axis lists no intensities");
    return axis;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> extra = sim::kServingFlags;
    extra.push_back("mtbf-axis");
    auto opt = bench::BenchOptions::parse(argc, argv, 48, extra,
                                          /*runs_grid=*/true,
                                          /*supports_json=*/true);
    bench::BenchReport report("serving_capacity", opt.jsonPath);
    bench::banner("Batched-serving capacity of the paper engine grid",
                  "the serving extension (docs/ARCHITECTURE.md)");

    sim::ServingSweepOptions serving;
    static_cast<sim::GridOptions &>(serving) = opt.grid;
    sim::parseServingFlags(opt.args, "2000,20000,200000", serving);

    report.phase("serve");
    const std::vector<sim::BatchCostCurve> curves =
        sim::buildCostCurves(opt.networks, models::paperEngineGrid(),
                             models::builtinEngines(), serving);
    auto reports = sim::playServing(curves, serving);

    report.phase("render");
    util::TextTable table({"network", "engine", "offered/s",
                           "mean_batch", "p99_cycles", "images/s",
                           "util"});
    for (const auto &r : reports) {
        table.addRow({r.networkName, r.engineName,
                      util::formatDouble(r.offeredPerSecond),
                      util::formatDouble(r.meanBatch),
                      std::to_string(r.p99Cycles),
                      util::formatDouble(r.imagesPerSecond),
                      util::formatDouble(r.utilization)});
    }
    std::string rendered = table.render();
    std::printf("%s\n", rendered.c_str());
    std::printf("Saturating rates fill the --max-batch cap and "
                "amortize FC filter traffic;\nlight load degenerates "
                "to batch-1 dispatch after --timeout cycles.\n");

    // Degraded capacity: replay the same curves at each --mtbf-axis
    // fault intensity (mttr = mtbf / 10) and report what
    // availability and goodput survive.
    report.phase("degrade");
    std::vector<uint64_t> axis = parseMtbfAxis(opt.args.getString(
        "mtbf-axis", opt.smoke ? "5000000,1000000"
                               : "1000000000,100000000"));
    util::TextTable degraded({"network", "engine", "offered/s",
                              "mtbf", "avail", "goodput/s",
                              "retries", "permfail"});
    for (uint64_t mtbf : axis) {
        sim::ServingSweepOptions faulted = serving;
        faulted.serving.faults.mtbfCycles = mtbf;
        faulted.serving.faults.mttrCycles =
            std::max<uint64_t>(1, mtbf / 10);
        faulted.serving.faults.seed = opt.grid.seed;
        auto rows = sim::playServing(curves, faulted);
        for (const auto &r : rows) {
            degraded.addRow({r.networkName, r.engineName,
                             util::formatDouble(r.offeredPerSecond),
                             std::to_string(r.mtbfCycles),
                             util::formatDouble(r.availability),
                             util::formatDouble(r.imagesPerSecond),
                             std::to_string(r.retries),
                             std::to_string(r.permanentFailures)});
        }
    }
    std::string degraded_rendered = degraded.render();
    std::printf("degraded capacity (fail-stop faults, mttr = "
                "mtbf/10):\n%s\n", degraded_rendered.c_str());

    report.digest(rendered + degraded_rendered);
    report.write();
    return 0;
}
