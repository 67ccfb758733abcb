/**
 * @file
 * Design-space exploration: sweep the Pragmatic design parameters the
 * paper ablates — first-stage shifter width L, synchronization
 * scheme, SSR count — and report performance, area, power and energy
 * efficiency per design point, on one network.
 *
 * Built on the Engine/sweep subsystem: all design points run as one
 * parallel sweep grid, optionally exported as CSV.
 *
 *   ./design_space_explorer [--network=vggm] [--units=48]
 *                           [--threads=N] [--cache=on|off]
 *                           [--csv=FILE] [--smoke]
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "dnn/model_zoo.h"
#include "energy/area_power.h"
#include "models/engines.h"
#include "sim/grid_flags.h"
#include "sim/sweep.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    args.checkUnknown(
        {"network", "units", "full", "threads", "cache", "csv", "smoke"},
        &std::cout);
    // One network x eleven engines: exactly the small-grid case the
    // two-level sweep is for — spare workers split layers instead of
    // idling. The grid flags this example takes parse like
    // pra_sweep's; its one network comes from --network.
    sim::SweepOptions sweep;
    sim::parseGridFlags(args, sweep, 48, 2);
    dnn::Network net = dnn::makeNetworkByName(args.getString(
        "network", args.getBool("smoke") ? "tiny" : "vggm"));

    // The exploration grid: DaDN baseline, pallet sync over the
    // first-stage shifter width, column sync at L == 2 over SSRs.
    // Each design point pairs an engine selection with its calibrated
    // area/power.
    std::vector<sim::EngineSelection> engines = {{"dadn", {}}};
    std::vector<energy::AreaPower> areaPowers = {
        energy::dadnAreaPower()};
    for (int l = 0; l <= 4; l++) {
        engines.push_back(
            {"pragmatic", {{"bits", std::to_string(l)}}});
        areaPowers.push_back(energy::pragmaticPalletAreaPower(l));
    }
    for (int ssrs : {1, 2, 4, 8, 16}) {
        engines.push_back({"pragmatic-col",
                           {{"bits", "2"},
                            {"ssr", std::to_string(ssrs)}}});
        areaPowers.push_back(
            energy::pragmaticColumnAreaPower(2, ssrs));
    }

    auto results = sim::runSweep({net}, engines,
                                 models::builtinEngines(), sweep);
    const auto &base = results[0];
    double base_power = energy::dadnAreaPower().chipPower;

    std::printf("Design space for %s (DaDN baseline: %.0f cycles, "
                "%.1f W, %.0f mm^2)\n\n",
                net.name.c_str(), base.totalCycles(), base_power,
                energy::dadnAreaPower().chipArea);

    util::TextTable table({"design", "speedup", "area mm^2",
                           "power W", "efficiency"});
    for (size_t e = 1; e < engines.size(); e++) {
        double speedup = results[e].speedupOver(base);
        const auto &ap = areaPowers[e];
        double eff = energy::energyEfficiency(speedup, base_power,
                                              ap.chipPower);
        table.addRow({results[e].engineName,
                      util::formatDouble(speedup),
                      util::formatDouble(ap.chipArea, 0),
                      util::formatDouble(ap.chipPower, 1),
                      util::formatDouble(eff)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The sweet spot the paper selects is PRA-2b (pallet) "
                "and PRA-2b-1R (column):\nwider shifters buy "
                "negligible cycles for significant power.\n");

    std::string csv_path = args.getString("csv", "");
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out)
            util::fatal("cannot open '" + csv_path + "'");
        sim::writeSweepCsv(out, results);
        std::printf("wrote raw sweep results to %s\n",
                    csv_path.c_str());
    }
    return 0;
}
