#include "models/dynamic_stripes/dynamic_stripes.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "fixedpoint/fixed_point.h"
#include "models/stripes/stripes.h"
#include "sim/operand_planes.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

void
checkDynamicStripesMachine(const DynamicStripesConfig &config,
                           const sim::AccelConfig &accel)
{
    const int wpp = accel.windowsPerPallet;
    const int gc = config.groupColumns;
    if (!config.layerWide && (gc < 1 || wpp % gc != 0))
        util::fatal("dynamic_stripes: granularity must be a positive "
                    "divisor of windowsPerPallet (" +
                    std::to_string(wpp) + "); got " +
                    std::to_string(gc));
}

namespace {

/**
 * The Diffy front end: each column's detector input is the absolute
 * spatial x-difference against the previous column (x == 0 keeps the
 * raw value). Magnitude codes, so the difference is taken on the
 * integer values.
 */
dnn::NeuronTensor
diffyTransform(const dnn::NeuronTensor &input)
{
    dnn::NeuronTensor out(input.sizeX(), input.sizeY(), input.sizeI());
    for (int y = 0; y < input.sizeY(); y++)
        for (int x = 0; x < input.sizeX(); x++)
            for (int i = 0; i < input.sizeI(); i++) {
                int v = input.at(x, y, i);
                if (x > 0)
                    v -= input.at(x - 1, y, i);
                out.at(x, y, i) = static_cast<uint16_t>(std::abs(v));
            }
    return out;
}

/**
 * The static layer-wide configuration: exactly Stripes at the
 * profiled precision, or — leading-bit-only detection — at the top
 * of the synthesis window (see the header comment).
 */
sim::LayerResult
layerWideResult(const dnn::LayerSpec &layer,
                const sim::AccelConfig &accel,
                const DynamicStripesConfig &config)
{
    int precision = layer.profiledPrecision;
    if (config.leadingBit)
        precision = std::min(16, dnn::synthesisAnchor(layer) +
                                     layer.profiledPrecision);
    return StripesModel(accel).layerResult(layer, precision);
}

} // namespace

sim::LayerResult
simulateLayerDynamicStripes(const dnn::LayerSpec &layer,
                            const sim::LayerWorkload &workload,
                            const sim::AccelConfig &accel,
                            const DynamicStripesConfig &config,
                            const sim::SampleSpec &sample,
                            const util::InnerExecutor &exec)
{
    if (config.layerWide)
        return layerWideResult(layer, accel, config);
    checkDynamicStripesMachine(config, accel);
    const int gc = config.groupColumns;
    const int regs = config.columnRegisters;
    PRA_CHECK(regs >= 0, "dynamic_stripes: negative column registers");

    // The detector input: the raw stream, or its Diffy difference.
    // Diffy masks summarize a *different* tensor than the shared
    // workload planes, so it prices a local workload of its own.
    std::optional<sim::LayerWorkload> diffed;
    if (config.diffy)
        diffed.emplace(diffyTransform(workload.tensor()));
    sim::PalletDriver driver(layer, accel, sample,
                             diffed ? *diffed : workload);
    const uint16_t *masks = driver.workload().brickPlanes().orMask.data();
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    const size_t max_groups =
        static_cast<size_t>(accel.windowsPerPallet / gc);

    sim::PalletTotals totals = driver.forEachPallet(
        exec,
        [&, group_prec = std::vector<int>(max_groups),
         finish = std::vector<int64_t>(max_groups),
         ring = std::vector<int64_t>(static_cast<size_t>(
             std::max(regs, 1)))](
            std::span<const sim::WindowCoord> columns,
            sim::PalletTotals &acc) mutable {
            const int active = static_cast<int>(columns.size());
            // Groups past the active prefix have no columns (only the
            // layer's last pallet is partial) and never gate anyone.
            const int groups = (active + gc - 1) / gc;
            std::fill(finish.begin(), finish.end(), int64_t{0});
            std::fill(ring.begin(), ring.end(), int64_t{0});
            int64_t pallet_done = 0;
            for (size_t si = 0; si < sets.size(); si++) {
                const int64_t s = static_cast<int64_t>(si);
                const sim::SynapseSetCoord &set = sets[si];
                const int real_lanes = std::min(
                    accel.neuronLanes, layer.inputChannels - set.brickI);
                for (int g = 0; g < groups; g++) {
                    const int first = g * gc;
                    const int last = std::min(first + gc, active);
                    uint16_t m = 0;
                    for (int c = first; c < last; c++) {
                        const int64_t brick = driver.brickIndex(
                            columns[static_cast<size_t>(c)], set);
                        if (brick >= 0)
                            m |= masks[brick];
                    }
                    const int p = fixedpoint::dynamicPrecision(
                        m, config.leadingBit);
                    group_prec[static_cast<size_t>(g)] = p;
                    // Every member column streams the group's
                    // precision over the brick's real lanes.
                    acc.terms += static_cast<int64_t>(p) * real_lanes *
                                 (last - first);
                }
                if (regs == 0) {
                    // Lockstep: the pallet advances at its slowest
                    // group; even an all-zero step holds the
                    // pipeline for the SB read cycle.
                    int step = 0;
                    for (int g = 0; g < groups; g++)
                        step = std::max(
                            step, group_prec[static_cast<size_t>(g)]);
                    acc.processCycles += std::max(1, step);
                } else {
                    // Run-ahead: group g may start set s once the
                    // slowest group finished set s - regs (its
                    // register frees up then).
                    int64_t gate =
                        s >= regs
                            ? ring[static_cast<size_t>(s % regs)]
                            : 0;
                    int64_t slowest = 0;
                    for (int g = 0; g < groups; g++) {
                        size_t gi = static_cast<size_t>(g);
                        finish[gi] =
                            std::max(finish[gi], gate) +
                            std::max(1, group_prec[gi]);
                        slowest = std::max(slowest, finish[gi]);
                    }
                    ring[static_cast<size_t>(s % regs)] = slowest;
                    pallet_done = slowest;
                }
            }
            if (regs > 0)
                acc.processCycles += pallet_done;
        });
    return driver.result("DynamicStripes", totals, layer.numFilters);
}

} // namespace models
} // namespace pra
