/**
 * @file
 * Reproduces Figure 9: performance of Stripes and of Pragmatic with
 * 0..4-bit first-stage shifters (2-stage shifting, pallet
 * synchronization), relative to DaDianNao.
 *
 * Runs through the Engine/sweep subsystem: the whole
 * (network x engine) grid fans out across --threads workers and is
 * bit-identical to the sequential run.
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
    bench::BenchReport report("fig9_performance_shifting",
                              opt.jsonPath);
    bench::banner(
        "Pragmatic performance vs DaDN, 2-stage shifting, pallet sync",
        "Figure 9");

    // Engine grid: DaDN baseline first, then the Figure 9 series.
    std::vector<sim::EngineSelection> engines = {{"dadn", {}},
                                                 {"stripes", {}}};
    for (int l = 0; l <= 4; l++)
        engines.push_back(
            {"pragmatic", {{"bits", std::to_string(l)}}});

    report.phase("sweep");
    auto results = bench::runGrid(opt, engines);

    report.phase("render");
    std::string rendered = bench::speedupTable(
        opt, engines, results,
        {"network", "Stripes", "0-bit", "1-bit", "2-bit", "3-bit", "4-bit"});
    std::printf("%s\n", rendered.c_str());
    std::printf("Paper (geo): Stripes 1.85x; PRA-single (4-bit) 2.59x;"
                "\n2- and 3-bit within 0.2%% of single-stage; 0-bit "
                "still ~20%% over Stripes.\n");
    report.digest(rendered);
    report.write();
    return 0;
}
