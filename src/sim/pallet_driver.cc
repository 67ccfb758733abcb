#include "sim/pallet_driver.h"

#include "util/check.h"

namespace pra {
namespace sim {

PalletDriver::PalletDriver(const dnn::LayerSpec &layer,
                           const AccelConfig &accel,
                           const SampleSpec &sample,
                           const LayerWorkload &workload)
    : tiling_(layer, accel),
      plan_(planSample(tiling_.numPallets(), sample)),
      workload_(workload), sizeX_(workload.tensor().sizeX()),
      bricksPerColumn_((workload.tensor().sizeI() + dnn::kBrickSize - 1) /
                       dnn::kBrickSize)
{
    PRA_CHECK(!plan_.indices.empty(), "pallet walk: layer has no pallets");
    // setCoord is pure index arithmetic, but every pallet visits every
    // set: resolve them once per layer.
    const int64_t num_sets = tiling_.numSynapseSets();
    setCoords_.reserve(static_cast<size_t>(num_sets));
    for (int64_t s = 0; s < num_sets; s++)
        setCoords_.push_back(tiling_.setCoord(s));
}

LayerResult
PalletDriver::result(const PalletTotals &totals,
                     double term_weight) const
{
    LayerResult result;
    result.layerName = tiling_.layer().name;
    result.sampleScale = plan_.scale;
    const double passes = static_cast<double>(tiling_.passes());
    result.cycles = passes * plan_.scale *
                    static_cast<double>(totals.processCycles +
                                        totals.stallCycles);
    result.nmStallCycles =
        passes * plan_.scale * static_cast<double>(totals.stallCycles);
    result.effectualTerms =
        plan_.scale * static_cast<double>(totals.terms) * term_weight;
    // One SB read per pallet step: the same count DaDN performs
    // (Section V-E's "accessed the same number of times" baseline).
    result.sbReadSteps = passes *
                         static_cast<double>(tiling_.numPallets()) *
                         static_cast<double>(setCoords_.size());
    return result;
}

} // namespace sim
} // namespace pra
