/**
 * @file
 * Quickstart: simulate one convolutional layer on DaDianNao, Stripes
 * and Pragmatic, verify that Pragmatic's PIP datapath computes the
 * exact convolution, and print the speedups.
 *
 *   ./quickstart [--layer=N] [--network=alexnet]
 */

#include <cstdio>
#include <iostream>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/reference.h"
#include "models/engines.h"
#include "models/pragmatic/pip.h"
#include "sim/tiling.h"
#include "util/args.h"
#include "util/thread_pool.h"

using namespace pra;

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    args.checkUnknown({"network", "layer"}, &std::cout);
    dnn::Network net =
        dnn::makeNetworkByName(args.getString("network", "alexnet"));
    int layer_idx =
        args.getCount("layer", 2, 0, "a non-negative layer index");
    const dnn::LayerSpec &layer = net.layers.at(layer_idx);

    std::printf("Quickstart: %s / %s\n", net.name.c_str(),
                layer.name.c_str());
    std::printf("  input %dx%dx%d, %d filters of %dx%d, stride %d, "
                "precision %d bits\n\n",
                layer.inputX, layer.inputY, layer.inputChannels,
                layer.numFilters, layer.filterX, layer.filterY,
                layer.stride, layer.profiledPrecision);

    // 1. Synthesize the layer's input neuron stream (calibrated to
    //    the paper's Table I bit statistics).
    dnn::ActivationSynthesizer synth(net);
    dnn::NeuronTensor input = synth.synthesizeFixed16Trimmed(layer_idx);

    // 2. Functional check: a Pragmatic inner-product column computes
    //    the exact convolution, one essential bit per cycle.
    auto filters = dnn::synthesizeFilters(layer);
    sim::AccelConfig accel;
    sim::LayerTiling tiling(layer, accel);
    models::PragmaticInnerProduct pip(2);
    int64_t pra_sum = 0;
    int pra_cycles = 0;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++) {
        auto coord = tiling.setCoord(s);
        auto neurons = tiling.gatherBrick(input, {0, 0}, coord);
        std::array<int16_t, dnn::kBrickSize> synapses{};
        int lanes = std::min(accel.neuronLanes,
                             layer.inputChannels - coord.brickI);
        for (int lane = 0; lane < lanes; lane++)
            synapses[lane] =
                filters[0].at(coord.fx, coord.fy, coord.brickI + lane);
        auto r = pip.processBrick(synapses, neurons);
        pra_sum += r.partialSum;
        pra_cycles += std::max(1, r.cycles);
    }
    int64_t golden =
        dnn::referenceWindowDot(layer, input, filters[0], 0, 0);
    std::printf("Functional check, output neuron (0,0,0):\n"
                "  PIP column: %lld in %d cycles; reference: %lld  %s\n"
                "  (a bit-parallel unit needs %lld cycles per window; "
                "PRA recovers\n   throughput by processing 16 windows "
                "in parallel)\n\n",
                static_cast<long long>(pra_sum), pra_cycles,
                static_cast<long long>(golden),
                pra_sum == golden ? "[exact]" : "[MISMATCH]",
                static_cast<long long>(tiling.numSynapseSets()));

    // 3. Cycle-level comparison on the whole layer: each registry
    //    engine prices the same stream (DaDN and Stripes ignore it).
    sim::LayerWorkload workload(input);
    auto cycles = [&](const std::string &kind) {
        return models::builtinEngines()
            .create(kind)
            ->simulateLayer(layer, workload, accel, sim::SampleSpec{256},
                            util::InnerExecutor())
            .cycles;
    };
    double base = cycles("dadn");
    double str = cycles("stripes");
    double pra = cycles("pragmatic");
    double col = cycles("pragmatic-col");

    std::printf("Layer execution time (cycles, lower is better):\n");
    std::printf("  DaDianNao          %12.0f   1.00x\n", base);
    std::printf("  Stripes            %12.0f   %.2fx\n", str,
                base / str);
    std::printf("  Pragmatic 2b       %12.0f   %.2fx\n", pra,
                base / pra);
    std::printf("  Pragmatic 2b-1R    %12.0f   %.2fx\n", col,
                base / col);
    return 0;
}
