/**
 * @file
 * pra_sweep: run the (network x engine x config) grid in one shot.
 *
 *   pra_sweep [--networks all|a,b] [--engines paper|all|spec,spec]
 *             [--layers conv|fc|all] [--activations synthetic|propagated]
 *             [--memory off|ideal|preset] [--batch B] [--shard i/N]
 *             [--threads N] [--cache on|off]
 *             [--units N | --full] [--seed S]
 *             [--csv FILE] [--per-layer] [--smoke] [--list-engines]
 *             [--list-memory]
 *
 * An engine spec is "kind[:key=value]*", e.g. "pragmatic:bits=2" or
 * "pragmatic-col:bits=2:ssr=1"; see --list-engines for kinds and
 * knobs. "--engines paper" (default) runs the paper's headline design
 * points; "--engines all" runs one default instance of each of the
 * five kinds in the frozen core grid (dadn, pragmatic, pragmatic-col,
 * stripes, terms; models::coreEngineGrid), not every registered kind.
 * Results stream as CSV to --csv (default stdout),
 * with a speedup-vs-DaDN summary table on stderr when DaDN is in the
 * grid.
 *
 * "--layers" selects which layer kinds each network contributes:
 * "conv" (default, the paper's conv-only workload — output is
 * byte-identical to the historical conv-only tool), "fc" (the
 * fully-connected tails alone) or "all".
 *
 * "--activations" selects the workload class: "synthetic" (default,
 * independent calibrated per-layer streams — output byte-identical
 * to the committed goldens) or "propagated" (each layer's input is
 * the previous layer's actual output through the reference forward
 * pass, ReLU, pooling, and requantization; see dnn/propagate.h).
 * Propagated mode prices the full pipeline, so it implies
 * --layers=all; any other explicit --layers value is rejected.
 *
 * "--memory" selects the memory-hierarchy design point (global
 * buffer, double-buffered scratchpads, DRAM — see
 * sim/memory/memory_config.h and --list-memory). "off" (default)
 * keeps results compute-only and byte-identical to the committed
 * goldens; any other preset adds the on-chip/off-chip traffic,
 * stall-cycle, and system-cycle columns to the CSV and an off-chip /
 * memory-energy summary to stderr. "ideal" counts traffic at
 * infinite bandwidth: zero stalls, compute columns exactly equal to
 * an "off" run.
 *
 * "--batch B" prices a batch of B images per cell instead of one:
 * each engine runs B per-image streams (image 0 is the historical
 * one) and reports per-batch totals plus the batch/cycles_per_image
 * CSV columns; with --memory enabled, filter traffic amortizes over
 * the batch while ifmap/ofmap traffic scales with it. "--batch 1"
 * (default) is byte-identical to the historical single-image sweep.
 *
 * "--shard i/N" prices only shard i of the grid-order cell list
 * (0 <= i < N, contiguous balanced split). Concatenating the CSV
 * bodies of shards 0..N-1 (headers dropped after the first)
 * reproduces the unsharded output byte for byte, so a big sweep can
 * fan out across jobs. The speedup summary needs the whole grid and
 * is skipped when sharded.
 *
 * "--cache off" rebuilds every cell's workload from scratch instead
 * of sharing one synthesis per (network, stream, seed) — only useful
 * to bound the cache's memory or to verify equivalence.
 * "--threads N" runs one pool task per (cell, batch image) pass; when
 * there are fewer passes than threads, each pass also splits its
 * layers into ceil(N / passes) pallet blocks. Output is
 * bit-identical for any --threads value and with the cache on or
 * off. The memoized schedule-cycle planes are exact too: a sweep
 * test prices the CI grids with them disabled and compares the CSV
 * bytes against the serial per-brick schedule.
 *
 * The grid flags (--networks through --smoke) parse in
 * sim/grid_flags.h, shared with pra_serve and the benches.
 */

#include <cstdio>
#include <iostream>
#include <limits>

#include "energy/memory_energy.h"
#include "models/engines.h"
#include "sim/grid_flags.h"
#include "sim/sweep.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/table.h"

using namespace pra;

namespace {

/** Speedup-vs-DaDN table on stderr (skipped when DaDN absent). */
void
printSummary(const std::vector<dnn::Network> &networks,
             const std::vector<sim::NetworkResult> &results,
             size_t num_engines)
{
    bool have_dadn = false;
    for (size_t e = 0; e < num_engines; e++)
        if (results[e].engineName == "DaDN")
            have_dadn = true;
    if (!have_dadn)
        return;

    std::vector<std::string> header = {"network"};
    for (size_t e = 0; e < num_engines; e++)
        header.push_back(results[e].engineName);
    util::TextTable table(header);
    for (size_t n = 0; n < networks.size(); n++) {
        const auto &base =
            sim::findResult(results, networks[n].name, "DaDN");
        std::vector<std::string> row = {networks[n].name};
        for (size_t e = 0; e < num_engines; e++) {
            const auto &cell = results[n * num_engines + e];
            // The analytic terms engines report work, not cycles; a
            // cycle ratio against them would be meaningless.
            if (cell.engineName.rfind("terms-", 0) == 0)
                row.push_back("-");
            else
                row.push_back(
                    util::formatDouble(cell.speedupOver(base)));
        }
        table.addRow(row);
    }
    std::fprintf(stderr, "speedup over DaDN:\n%s\n",
                 table.render().c_str());
}

/**
 * Memory summary on stderr (only with --memory enabled): per cell,
 * off-chip megabytes, the stall share of system cycles, how many
 * layers are bandwidth-bound, and the data-movement energy.
 */
void
printMemorySummary(const std::vector<sim::NetworkResult> &results,
                   const std::string &preset)
{
    util::TextTable table({"network", "engine", "off-chip MB",
                           "stall %", "bw-bound layers", "mem mJ"});
    for (const auto &result : results) {
        int bw_bound = 0;
        for (const auto &layer : result.layers)
            bw_bound += layer.bandwidthBound ? 1 : 0;
        double stall_share = 100.0 * result.totalMemStalls() /
                             result.totalSystemCycles();
        energy::MemoryEnergy energy =
            energy::networkMemoryEnergy(result);
        table.addRow({result.networkName, result.engineName,
                      util::formatDouble(result.totalOffChipBytes() /
                                         (1024.0 * 1024.0)),
                      util::formatDouble(stall_share),
                      std::to_string(bw_bound),
                      util::formatDouble(energy.totalPJ() * 1e-9)});
    }
    std::fprintf(stderr, "memory hierarchy (--memory=%s):\n%s\n",
                 preset.c_str(), table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    std::vector<std::string> known = sim::kGridFlags;
    known.insert(known.end(), {"engines", "batch", "shard", "csv",
                               "per-layer", "list-engines",
                               "list-memory"});
    args.checkUnknown(known, &std::cout);
    if (sim::printListing(args, models::builtinEngines(), std::cout))
        return 0;

    sim::SweepOptions options;
    std::vector<dnn::Network> networks =
        sim::parseGridFlags(args, options, 64, 4);
    std::vector<sim::EngineSelection> engines =
        models::parseEngineList(args.getString("engines", "paper"));
    options.batch =
        args.getCount("batch", 1, 1, "a positive image count");
    if (args.has("shard")) {
        std::string shard = args.getString("shard");
        size_t slash = shard.find('/');
        size_t parsed_i = 0;
        size_t parsed_n = 0;
        long long i = -1;
        long long n = -1;
        if (slash != std::string::npos && slash > 0 &&
            slash + 1 < shard.size()) {
            try {
                i = std::stoll(shard.substr(0, slash), &parsed_i);
                n = std::stoll(shard.substr(slash + 1), &parsed_n);
            } catch (...) {
                i = n = -1;
            }
        }
        // i < N <= INT_MAX bounds both before the narrowing casts
        // below (4294967297 used to wrap to 1).
        if (i < 0 || n <= 0 || i >= n ||
            n > std::numeric_limits<int>::max() || parsed_i != slash ||
            parsed_n != shard.size() - slash - 1)
            util::fatal("--shard must be i/N with 0 <= i < N (got '" +
                        shard + "')");
        options.shardIndex = static_cast<int>(i);
        options.shardCount = static_cast<int>(n);
    }

    std::vector<sim::NetworkResult> results = sim::runSweep(
        networks, engines, models::builtinEngines(), options);

    std::string csv_path = args.getString("csv", "");
    bool per_layer = args.getBool("per-layer");
    if (csv_path.empty()) {
        sim::writeSweepCsv(std::cout, results, per_layer);
    } else {
        util::writeFileAtomic(csv_path, [&](std::ostream &out) {
            sim::writeSweepCsv(out, results, per_layer);
        });
        std::fprintf(stderr, "wrote %zu cells to %s\n",
                     results.size(), csv_path.c_str());
    }
    // The speedup table indexes the full grid (and needs its DaDN
    // baseline cells); a shard holds only a slice of it.
    if (options.shardCount == 1)
        printSummary(networks, results, engines.size());
    if (options.accel.memory.enabled)
        printMemorySummary(results, options.accel.memory.preset);
    return 0;
}
