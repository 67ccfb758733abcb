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

DynamicStripesEngine::DynamicStripesEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs(
        "dynamic_stripes", knobs,
        {"granularity", "column-regs", "leading-bit", "diffy"});
    std::string granularity =
        sim::knobString(knobs, "granularity", "16");
    if (granularity == "layer") {
        config_.layerWide = true;
    } else {
        // Divisibility against windowsPerPallet is a property of the
        // machine (checkMachine); positivity is a property of the
        // flag and fails here.
        config_.groupColumns =
            static_cast<int>(sim::knobInt(knobs, "granularity", 16));
        if (config_.groupColumns < 1)
            util::fatal("dynamic_stripes: granularity must be a "
                        "positive column count or \"layer\"");
    }
    config_.columnRegisters =
        static_cast<int>(sim::knobInt(knobs, "column-regs", 0));
    if (config_.columnRegisters < 0)
        util::fatal("dynamic_stripes: column-regs must be >= 0");
    config_.leadingBit = sim::knobBool(knobs, "leading-bit", false);
    config_.diffy = sim::knobBool(knobs, "diffy", false);
    if (config_.layerWide && config_.diffy)
        util::fatal("dynamic_stripes: diffy needs runtime detection; "
                    "it cannot combine with granularity=layer");
    if (config_.layerWide && config_.columnRegisters > 0)
        util::fatal("dynamic_stripes: column-regs buffer runtime "
                    "groups; they cannot combine with "
                    "granularity=layer");
}

std::string
DynamicStripesEngine::name() const
{
    std::string n = config_.layerWide
                        ? "DS-layer"
                        : "DS-g" + std::to_string(config_.groupColumns);
    if (config_.columnRegisters > 0)
        n += "-r" + std::to_string(config_.columnRegisters);
    if (config_.leadingBit)
        n += "-lb";
    if (config_.diffy)
        n += "-diffy";
    return n;
}

sim::InputStream
DynamicStripesEngine::inputStream() const
{
    // The layer-wide configuration is static (profiled precisions);
    // every runtime configuration reads the trimmed value stream its
    // detectors would see.
    return config_.layerWide ? sim::InputStream::None
                             : sim::InputStream::Fixed16Trimmed;
}

void
DynamicStripesEngine::checkMachine(const sim::AccelConfig &accel) const
{
    const int wpp = accel.windowsPerPallet;
    const int gc = config_.groupColumns;
    if (!config_.layerWide && (gc < 1 || wpp % gc != 0))
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
    return StripesEngine::layerResult(layer, accel, precision);
}

} // namespace

sim::LayerResult
DynamicStripesEngine::simulateLayer(const dnn::LayerSpec &layer,
                                    const sim::LayerWorkload &workload,
                                    const sim::AccelConfig &accel,
                                    const sim::SampleSpec &sample,
                                    const util::InnerExecutor &exec) const
{
    if (config_.layerWide)
        return layerWideResult(layer, accel, config_);
    checkMachine(accel);
    const int gc = config_.groupColumns;
    const int regs = config_.columnRegisters;
    PRA_CHECK(regs >= 0, "dynamic_stripes: negative column registers");

    // The detector input: the raw stream, or its Diffy difference.
    // Diffy masks summarize a *different* tensor than the shared
    // workload planes, so it prices a local workload of its own.
    std::optional<sim::LayerWorkload> diffed;
    if (config_.diffy)
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
                        m, config_.leadingBit);
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
    return driver.result(totals, layer.numFilters);
}

} // namespace models
} // namespace pra
