/**
 * @file
 * End-to-end network evaluation: run a full network (default AlexNet)
 * through every modeled accelerator and emit a per-layer CSV plus a
 * summary — the workload of the paper's introduction, reproduced as
 * a library client would run it.
 *
 *   ./alexnet_end_to_end [--network=vgg19] [--units=64] [--full]
 *                        [--csv=results.csv]
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/layer_result.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace pra;

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    args.checkUnknown({"network", "full", "units", "csv"}, &std::cout);
    dnn::Network net =
        dnn::makeNetworkByName(args.getString("network", "alexnet"));
    sim::SampleSpec sample{args.sampleUnits(64)};
    dnn::ActivationSynthesizer synth(net);

    auto run = [&](const std::string &kind) {
        return models::builtinEngines().create(kind)->runNetwork(
            net, sim::WorkloadSource(synth), sim::AccelConfig{}, sample,
            util::InnerExecutor());
    };
    auto base = run("dadn");
    auto str = run("stripes");
    auto pra = run("pragmatic");
    auto col = run("pragmatic-col");

    util::TextTable table({"layer", "DaDN cyc", "STR x", "PRA-2b x",
                           "PRA-2b-1R x", "NM stalls"});
    for (size_t i = 0; i < net.layers.size(); i++) {
        double b = base.layers[i].cycles;
        table.addRow({net.layers[i].name,
                      util::formatDouble(b, 0),
                      util::formatDouble(b / str.layers[i].cycles),
                      util::formatDouble(b / pra.layers[i].cycles),
                      util::formatDouble(b / col.layers[i].cycles),
                      util::formatDouble(col.layers[i].nmStallCycles,
                                         0)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("%s totals: Stripes %.2fx, PRA-2b %.2fx, "
                "PRA-2b-1R %.2fx over DaDN\n",
                net.name.c_str(), str.speedupOver(base) > 0
                    ? base.totalCycles() / str.totalCycles()
                    : 0.0,
                base.totalCycles() / pra.totalCycles(),
                base.totalCycles() / col.totalCycles());

    std::string csv_path = args.getString("csv", "");
    if (!csv_path.empty()) {
        std::ofstream file(csv_path);
        util::CsvWriter csv(file);
        csv.writeHeader({"layer", "dadn_cycles", "stripes_cycles",
                         "pra2b_cycles", "pra2b1r_cycles"});
        for (size_t i = 0; i < net.layers.size(); i++) {
            csv.writeRow({net.layers[i].name,
                          std::to_string(base.layers[i].cycles),
                          std::to_string(str.layers[i].cycles),
                          std::to_string(pra.layers[i].cycles),
                          std::to_string(col.layers[i].cycles)});
        }
        std::printf("Per-layer results written to %s\n",
                    csv_path.c_str());
    }
    return 0;
}
