/**
 * @file
 * Reproduces Figure 12: performance with the 8-bit quantized
 * representation — Stripes, PRA single-stage pallet, PRA-2b pallet,
 * PRA-2b-1R and PRA-2b-ideal, relative to the (8-bit) DaDN baseline.
 *
 * Runs through the Engine/sweep subsystem like fig9/fig11 (parallel
 * across --threads, shared workload cache, bit-identical to the
 * sequential run). Stripes uses its repr=quant8 variant: per-layer
 * serial precisions derived from the code stream each layer actually
 * carries. Note that under --activations=propagated the affine
 * quantization is per-layer full-range (the paper's scheme), which
 * maps each live layer's maximum onto code 255 — so the Stripes
 * series sits at the full 8 bits by construction; the propagated
 * signal shows in the PRA series, whose cost tracks the essential
 * bits and zeros of the real forward-pass codes.
 */

#include <cstdio>

#include "bench/common.h"
#include "sim/sweep.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv, 48, {},
                                          /*runs_grid=*/true);
    bench::banner("Performance, 8-bit quantized representation",
                  "Figure 12");

    // The Figure 12 series over the 8-bit code streams; the DaDN
    // baseline rides along at index 0 (its cycle count is
    // value-independent, so it doubles as the 8-bit baseline).
    const std::vector<sim::EngineSelection> engines = {
        {"dadn", {}},
        {"stripes", {{"repr", "quant8"}}},
        {"pragmatic", {{"bits", "4"}, {"repr", "quant8"}}},
        {"pragmatic", {{"bits", "2"}, {"repr", "quant8"}}},
        {"pragmatic-col",
         {{"bits", "2"}, {"ssr", "1"}, {"repr", "quant8"}}},
        {"pragmatic-col",
         {{"bits", "2"}, {"ssr", "0"}, {"repr", "quant8"}}},
    };

    auto results = bench::runGrid(opt, engines);

    std::string rendered = bench::speedupTable(
        opt, engines, results,
        {"network", "Stripes", "perPall", "perPall-2bit",
         "perCol-1reg-2bit", "perCol-ideal-2bit"});
    std::printf("%s\n", rendered.c_str());
    std::printf("Paper: benefits persist at 8 bits; PRA-2b-1R reaches "
                "nearly 3.5x.\n");
    return 0;
}
