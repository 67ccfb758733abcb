/**
 * @file
 * Reproduces Figure 10: PRA-2b performance with per-column
 * synchronization as a function of the SSR count (1, 4, 16 registers
 * and the ideal infinite-register design), relative to DaDN, with
 * Stripes as the reference first bar.
 *
 * Runs through the Engine/sweep subsystem: the whole
 * (network x engine) grid fans out across --threads workers, every
 * SSR variant shares one workload (and its memoized schedule-cycle
 * planes) per network.
 */

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "models/engines.h"
#include "sim/layer_result.h"
#include "sim/sweep.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(
        argc, argv, 48, {}, /*runs_grid=*/true,
        /*supports_json=*/true);
    bench::BenchReport report("fig10_column_sync", opt.jsonPath);
    bench::banner("Per-column synchronization vs SSR count (PRA-2b)",
                  "Figure 10");

    // Engine grid: DaDN baseline and the Stripes reference bar first,
    // then PRA-2b across the SSR counts (0 == ideal).
    std::vector<sim::EngineSelection> engines = {{"dadn", {}},
                                                 {"stripes", {}}};
    const int ssr_counts[] = {1, 4, 16, 0};
    for (int ssr : ssr_counts)
        engines.push_back({"pragmatic-col",
                           {{"bits", "2"},
                            {"ssr", std::to_string(ssr)}}});

    report.phase("sweep");
    sim::SweepOptions sweep;
    opt.applyTo(sweep);
    auto results = sim::runSweep(opt.networks, engines,
                                 models::builtinEngines(), sweep);

    report.phase("render");
    util::TextTable table({"network", "Stripes", "1-reg", "4-regs",
                           "16-regs", "perCol-ideal"});
    const size_t series = engines.size() - 1; // All but the baseline.
    std::vector<std::vector<double>> speedups(series);
    for (size_t n = 0; n < opt.networks.size(); n++) {
        const auto &base = results[n * engines.size()];
        std::vector<std::string> row = {opt.networks[n].name};
        for (size_t e = 0; e < series; e++) {
            double s =
                results[n * engines.size() + e + 1].speedupOver(base);
            speedups[e].push_back(s);
            row.push_back(util::formatDouble(s));
        }
        table.addRow(row);
    }
    std::vector<std::string> geo = {"geo"};
    for (const auto &column : speedups)
        geo.push_back(util::formatDouble(sim::geometricMean(column)));
    table.addRow(geo);
    std::string rendered = table.render();
    std::printf("%s\n", rendered.c_str());
    std::printf("Paper (geo): PRA-2b-1R 3.1x, ideal (infinite SSRs) "
                "3.45x — one SSR\ncaptures most of the benefit.\n");
    report.digest(rendered);
    report.write();
    return 0;
}
