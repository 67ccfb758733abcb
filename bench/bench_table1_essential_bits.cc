/**
 * @file
 * Reproduces Table I: average fraction of non-zero neuron bits per
 * network for the 16-bit fixed-point and 8-bit quantized streams,
 * over all neurons ("All") and over non-zero neurons ("NZ").
 */

#include <cstdio>

#include "bench/common.h"
#include "dnn/activation_synth.h"
#include "fixedpoint/fixed_point.h"
#include "util/table.h"

using namespace pra;

namespace {

/** Aggregate essential-bit stats over a whole network's input streams. */
struct StreamStats
{
    double all = 0.0;
    double nz = 0.0;
};

StreamStats
measure(const dnn::ActivationSynthesizer &synth, bool quantized)
{
    double set_bits = 0.0;
    double neurons = 0.0;
    double nz_neurons = 0.0;
    int width = quantized ? 8 : 16;
    const auto &net = synth.network();
    for (size_t i = 0; i < net.layers.size(); i++) {
        if (!net.layers[i].priced())
            continue; // Structural pools carry no priced stream.
        dnn::NeuronTensor t =
            quantized ? synth.synthesizeQuant8(static_cast<int>(i))
                      : synth.synthesizeFixed16(static_cast<int>(i));
        for (uint16_t v : t.flat()) {
            neurons += 1.0;
            if (v == 0)
                continue;
            nz_neurons += 1.0;
            set_bits += fixedpoint::essentialBits(v);
        }
    }
    StreamStats stats;
    stats.all = set_bits / (neurons * width);
    stats.nz = nz_neurons > 0 ? set_bits / (nz_neurons * width) : 0.0;
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Essential neuron bit content", "Table I");

    util::TextTable table({"network", "rep", "All meas", "All paper",
                           "NZ meas", "NZ paper"});
    for (const auto &net : opt.networks) {
        dnn::ActivationSynthesizer synth(net, opt.grid.seed);
        StreamStats fx = measure(synth, false);
        StreamStats q8 = measure(synth, true);
        table.addRow({net.name, "fixed16",
                      util::formatPercent(fx.all),
                      util::formatPercent(net.targets.all16),
                      util::formatPercent(fx.nz),
                      util::formatPercent(net.targets.nz16)});
        table.addRow({net.name, "quant8",
                      util::formatPercent(q8.all),
                      util::formatPercent(net.targets.all8),
                      util::formatPercent(q8.nz),
                      util::formatPercent(net.targets.nz8)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Note: 'All' includes the dense image-like first\n"
                "layer, so it sits slightly above the paper's pure\n"
                "ReLU-stream aggregates for some networks.\n");
    return 0;
}
