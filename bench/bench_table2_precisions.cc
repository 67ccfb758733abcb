/**
 * @file
 * Reproduces Table II: per-layer neuron precision profiles. We run
 * the Judd-style profiler over the synthetic activation streams and
 * print the recovered window widths next to the paper's published
 * profile (which the model zoo pins and the other benches consume).
 */

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "dnn/activation_synth.h"
#include "fixedpoint/precision.h"
#include "util/table.h"

using namespace pra;

int
main(int argc, char **argv)
{
    auto opt = bench::BenchOptions::parse(argc, argv);
    bench::banner("Per-layer neuron precision profiles", "Table II");

    for (const auto &net : opt.networks) {
        dnn::ActivationSynthesizer synth(net, opt.grid.seed);
        std::string published;
        std::string profiled;
        for (size_t i = 0; i < net.layers.size(); i++) {
            if (!net.layers[i].priced())
                continue; // Pools carry no Table II precision.
            auto raw = synth.synthesizeFixed16(static_cast<int>(i));
            // Tolerance mirrors the accuracy-preserving profiling:
            // the suffix noise carries ~ the software-benefit share
            // of the stream's magnitude.
            auto window = fixedpoint::profileWindow(
                raw.flat(), 0.01);
            if (!published.empty()) {
                published += "-";
                profiled += "-";
            }
            published +=
                std::to_string(net.layers[i].profiledPrecision);
            profiled += std::to_string(window.bits());
        }
        std::printf("%-10s published: %s\n", net.name.c_str(),
                    published.c_str());
        std::printf("%-10s profiled:  %s\n\n", net.name.c_str(),
                    profiled.c_str());
    }
    std::printf("'published' is the paper's Table II profile (used by\n"
                "Stripes and PRA-red); 'profiled' is what our profiler\n"
                "recovers from the synthetic streams at 1%% magnitude\n"
                "tolerance.\n");
    return 0;
}
