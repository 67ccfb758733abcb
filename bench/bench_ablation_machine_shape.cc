/**
 * @file
 * Ablation: the machine-shape design parameters the paper leaves as
 * knobs (Section IV-A1: "The number of neurons per brick, and bricks
 * per pallet are design parameters"). Sweeps windows-per-pallet
 * (PIP columns) and tile count for PRA-2b on one network, reporting
 * speedup over an equally-scaled DaDN — i.e. how much of Pragmatic's
 * benefit survives narrower or wider synchronization groups.
 *
 * All grid cells price the same workload through one shared
 * WorkloadCache view, so the stream is synthesized once and the
 * packed brick planes and memoized schedule-cycle planes are reused
 * across every machine shape (they depend only on the stream, not on
 * the machine).
 */

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "models/engines.h"
#include "sim/workload_cache.h"
#include "util/args.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace pra;

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    args.checkUnknown(
        {"smoke", "network", "layers", "full", "units", "json"},
        &std::cout);
    bool smoke = args.getBool("smoke");
    bench::BenchReport report("ablation_machine_shape",
                              args.getString("json", ""));
    dnn::Network net = dnn::makeNetworkByName(
        args.getString("network", smoke ? "tiny" : "alexnet"),
        dnn::parseLayerSelect(args.getString("layers", "conv")));
    sim::SampleSpec sample{args.sampleUnits(smoke ? 2 : 24)};

    std::printf("== Ablation: machine shape (PRA-2b vs equally-shaped "
                "DaDN), %s ==\n(design knobs of Section IV-A1; not a "
                "paper table)\n\n",
                net.name.c_str());

    // One workload for the whole grid: machine shape changes the
    // tiling, not the stream, so every cell shares the synthesized
    // tensors and their memoized planes.
    sim::WorkloadCache cache;
    auto synth = cache.synthesizer(net, 0x5eed);
    sim::WorkloadSource source(*synth, cache);
    auto dadn = models::builtinEngines().create("dadn");
    auto prag = models::builtinEngines().create("pragmatic");

    report.phase("grid");
    util::TextTable table({"windows/pallet", "tiles", "PRA cycles",
                           "DaDN cycles", "speedup"});
    for (int windows : {4, 8, 16, 32}) {
        for (int tiles : {4, 16}) {
            sim::AccelConfig accel;
            accel.windowsPerPallet = windows;
            accel.tiles = tiles;
            auto cycles = [&](const sim::Engine &engine) {
                return engine
                    .runNetwork(net, source, accel, sample,
                                util::InnerExecutor())
                    .totalCycles();
            };
            double base = cycles(*dadn);
            double pra = cycles(*prag);
            table.addRow({std::to_string(windows),
                          std::to_string(tiles),
                          util::formatDouble(pra, 0),
                          util::formatDouble(base, 0),
                          util::formatDouble(base / pra)});
        }
    }
    report.phase("render");
    std::string rendered = table.render();
    std::printf("%s\n", rendered.c_str());
    std::printf("Narrow pallets starve Pragmatic (below ~8 windows it "
                "cannot recover the\nbit-serial slowdown and falls "
                "behind DaDN); wider pallets keep helping in\ncycles "
                "but each extra window adds oneffset generators, NBin "
                "bandwidth and\na 16-PIP column of area — 16 windows "
                "is the paper's balance point. The\nDaDN baseline "
                "processes one window per cycle regardless, so its "
                "cycles\nshift only with tile count.\n");
    report.digest(rendered);
    report.write();
    return 0;
}
