/**
 * @file
 * Reproduces Figure 3: relative term counts with the 8-bit quantized
 * representation — ideal zero-neuron skipping vs Pragmatic.
 */

#include <cstdio>

#include "bench/common.h"
#include "models/analytic/term_count.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv, 48);
    bench::banner("Relative term counts, 8-bit quantized", "Figure 3");

    util::TextTable table({"network", "zero-skip", "PRA"});
    double zs_sum = 0.0;
    double pra_sum = 0.0;
    for (const auto &net : opt.networks) {
        dnn::ActivationSynthesizer synth(net, opt.grid.seed);
        auto rel = models::countNetworkTerms8(net, synth, opt.grid.sample);
        table.addRow({net.name, util::formatPercent(rel.zeroSkip),
                      util::formatPercent(rel.pra)});
        zs_sum += rel.zeroSkip;
        pra_sum += rel.pra;
    }
    double n = static_cast<double>(opt.networks.size());
    table.addRow({"average", util::formatPercent(zs_sum / n),
                  util::formatPercent(pra_sum / n)});
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: skipping zero neurons removes ~30%% of terms "
                "(leaving 70%%);\nPRA removes up to 71%% (leaving "
                "29%% on average). Lower is better.\n");
    return 0;
}
