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
#include "sim/sweep.h"

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
    auto results = bench::runGrid(opt, engines);

    report.phase("render");
    std::string rendered = bench::speedupTable(
        opt, engines, results,
        {"network", "Stripes", "1-reg", "4-regs", "16-regs",
         "perCol-ideal"});
    std::printf("%s\n", rendered.c_str());
    std::printf("Paper (geo): PRA-2b-1R 3.1x, ideal (infinite SSRs) "
                "3.45x — one SSR\ncaptures most of the benefit.\n");
    report.digest(rendered);
    report.write();
    return 0;
}
