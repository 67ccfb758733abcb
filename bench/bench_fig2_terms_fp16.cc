/**
 * @file
 * Reproduces Figure 2: convolutional-layer computational demand
 * (terms, normalized to DaDN) for ZN, CVN, Stripes, PRA-fp16 and
 * PRA-red with the 16-bit fixed-point representation.
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
    bench::banner("Relative term counts, 16-bit fixed point",
                  "Figure 2");

    util::TextTable table({"network", "ZN", "CVN", "STR", "PRA-fp16",
                           "PRA-red"});
    double sums[5] = {};
    for (const auto &net : opt.networks) {
        dnn::ActivationSynthesizer synth(net, opt.grid.seed);
        auto rel = models::countNetworkTerms16(net, synth, opt.grid.sample);
        table.addRow({net.name, util::formatPercent(rel.zn),
                      util::formatPercent(rel.cvn),
                      util::formatPercent(rel.stripes),
                      util::formatPercent(rel.praFp16),
                      util::formatPercent(rel.praRed)});
        sums[0] += rel.zn;
        sums[1] += rel.cvn;
        sums[2] += rel.stripes;
        sums[3] += rel.praFp16;
        sums[4] += rel.praRed;
    }
    double n = static_cast<double>(opt.networks.size());
    table.addRow({"average", util::formatPercent(sums[0] / n),
                  util::formatPercent(sums[1] / n),
                  util::formatPercent(sums[2] / n),
                  util::formatPercent(sums[3] / n),
                  util::formatPercent(sums[4] / n)});
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper averages: ZN 39%%, CVN 63%%, STR 53%%, "
                "PRA-fp16 10%%, PRA-red 8%% (lower is better).\n");
    return 0;
}
