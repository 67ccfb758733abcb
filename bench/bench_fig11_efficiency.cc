/**
 * @file
 * Reproduces Figure 11: relative energy efficiency
 * (E_DaDN / E_design) for Stripes, PRA-4b, PRA-2b and PRA-2b-1R,
 * combining our simulated cycle counts with the calibrated chip
 * powers.
 *
 * Cycle counts come from the Engine/sweep subsystem (parallel across
 * --threads workers); the power model stays per-design.
 */

#include <cstdio>

#include "bench/common.h"
#include "energy/area_power.h"
#include "sim/sweep.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(
        argc, argv, 48, {}, /*runs_grid=*/true,
        /*supports_json=*/true);
    bench::BenchReport report("fig11_efficiency", opt.jsonPath);
    bench::banner("Relative energy efficiency vs DaDN", "Figure 11");

    double p_base = energy::dadnAreaPower().chipPower;
    // Figure 11 series with each design's calibrated chip power; the
    // DaDN baseline rides along at index 0.
    const std::vector<sim::EngineSelection> engines = {
        {"dadn", {}},
        {"stripes", {}},
        {"pragmatic", {{"bits", "4"}}},
        {"pragmatic", {{"bits", "2"}}},
        {"pragmatic-col", {{"bits", "2"}, {"ssr", "1"}}},
    };
    const double powers[4] = {
        energy::stripesAreaPower().chipPower,
        energy::pragmaticPalletAreaPower(4).chipPower,
        energy::pragmaticPalletAreaPower(2).chipPower,
        energy::pragmaticColumnAreaPower(2, 1).chipPower,
    };

    report.phase("sweep");
    auto results = bench::runGrid(opt, engines);

    report.phase("render");
    // Each cell is an efficiency: the speedup over the power ratio.
    std::string rendered = bench::speedupTable(
        opt, engines, results,
        {"network", "Stripes", "PRA-4b", "PRA-2b", "PRA-2b-1R"},
        [&](size_t e, double speedup) {
            return energy::energyEfficiency(speedup, p_base, powers[e]);
        });
    std::printf("%s\n", rendered.c_str());
    std::printf("Paper (avg): Stripes 1.16x, PRA-4b 0.95x (5%% LESS "
                "efficient than DaDN),\nPRA-2b 1.28x, PRA-2b-1R 1.48x. "
                "The crossover — single-stage below\nbreak-even, "
                "2-stage above — is the claim to check.\n");
    report.digest(rendered);
    report.write();
    return 0;
}
