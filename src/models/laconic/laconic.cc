#include "models/laconic/laconic.h"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <vector>

#include "sim/operand_planes.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"
#include "util/bits.h"

namespace pra {
namespace models {

namespace {

/**
 * Per-lane neuron popcounts of one brick: the shared per-lane plane
 * when one applies, else popcounts over a zero-copy brick view.
 * Fills @p out with the brick's real lanes and returns their count
 * (0 for a padding brick).
 */
class LanePopSource
{
  public:
    LanePopSource(const sim::LayerTiling &tiling,
                  const dnn::NeuronTensor &src,
                  const sim::LanePopPlanes *planes)
        : tiling_(tiling), src_(src), planes_(planes)
    {
    }

    int
    pops(const sim::WindowCoord &w, const sim::SynapseSetCoord &s,
         int real_lanes, uint8_t *out) const
    {
        if (planes_) {
            const std::optional<sim::InputColumn> at =
                tiling_.inputColumn(w, s);
            if (!at)
                return 0;
            size_t base = planes_->index(
                at->x, at->y, s.brickI / dnn::kBrickSize, 0);
            std::copy_n(planes_->pop.data() + base,
                        static_cast<size_t>(real_lanes), out);
            return real_lanes;
        }
        auto view = tiling_.gatherBrickView(src_, w, s);
        for (size_t l = 0; l < view.size(); l++)
            out[l] = static_cast<uint8_t>(util::popcount16(view[l]));
        return static_cast<int>(view.size());
    }

  private:
    const sim::LayerTiling &tiling_;
    const dnn::NeuronTensor &src_;
    const sim::LanePopPlanes *planes_;
};

sim::LayerResult
simulateImpl(const dnn::LayerSpec &layer,
             const dnn::NeuronTensor &input,
             const sim::LayerWorkload *workload,
             const sim::AccelConfig &accel,
             const sim::SampleSpec &sample,
             const util::InnerExecutor &exec)
{
    sim::PalletDriver driver(layer, accel, sample, input, workload);
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    // Weight planes are lazy and unsynchronized: resolve them here,
    // before the pallet walk fans out across inner threads.
    const sim::WeightBrickPlanes &wgt = driver.weightPlanes();
    const LanePopSource acts(driver.tiling(), input,
                             driver.lanePopPlanes());

    sim::PalletTotals totals = driver.forEachPallet(
        exec, [&](std::span<const sim::WindowCoord> columns,
                  sim::PalletTotals &acc) {
            std::array<uint8_t, dnn::kBrickSize> pops{};
            for (size_t s = 0; s < sets.size(); s++) {
                const sim::SynapseSetCoord &set = sets[s];
                const int real_lanes = std::min(
                    accel.neuronLanes, layer.inputChannels - set.brickI);
                const size_t widx = wgt.index(static_cast<int>(s), 0);
                int64_t step = 0;
                for (const sim::WindowCoord &w : columns) {
                    int n = acts.pops(w, set, real_lanes, pops.data());
                    for (int l = 0; l < n; l++) {
                        const int64_t a = pops[static_cast<size_t>(l)];
                        if (a == 0)
                            continue;
                        const size_t wl = widx + static_cast<size_t>(l);
                        step = std::max(step, a * wgt.maxPop[wl]);
                        acc.terms += a * wgt.sumPop[wl];
                    }
                }
                // The one-cycle SB-read floor every pallet-synced
                // model shares.
                acc.processCycles += std::max<int64_t>(1, step);
            }
        });
    // wgtSumPop already sums every filter (hence every pass), so the
    // term total takes no passes or numFilters factor.
    return driver.result("Laconic", totals, 1.0);
}

} // namespace

sim::LayerResult
simulateLayerLaconic(const dnn::LayerSpec &layer,
                     const dnn::NeuronTensor &input,
                     const sim::AccelConfig &accel,
                     const sim::SampleSpec &sample)
{
    return simulateImpl(layer, input, nullptr, accel, sample,
                        util::InnerExecutor());
}

sim::LayerResult
simulateLayerLaconic(const dnn::LayerSpec &layer,
                     const sim::LayerWorkload &workload,
                     const sim::AccelConfig &accel,
                     const sim::SampleSpec &sample,
                     const util::InnerExecutor &exec)
{
    return simulateImpl(layer, workload.tensor(), &workload, accel,
                        sample, exec);
}

} // namespace models
} // namespace pra
