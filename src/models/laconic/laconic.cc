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

/** One brick's per-lane neuron popcounts, missing lanes zero. */
using LanePops = std::array<uint8_t, dnn::kBrickSize>;

/**
 * Per-lane neuron popcounts of one brick: the shared per-lane plane's
 * row when one applies, else popcounts over a zero-copy brick view,
 * written into @p scratch. Returns nullptr for a padding brick.
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

    const uint8_t *
    row(const sim::WindowCoord &w, const sim::SynapseSetCoord &s,
        LanePops &scratch) const
    {
        if (planes_) {
            const std::optional<sim::InputColumn> at =
                tiling_.inputColumn(w, s);
            if (!at)
                return nullptr;
            return planes_->pop.data() +
                   planes_->index(at->x, at->y,
                                  s.brickI / dnn::kBrickSize, 0);
        }
        auto view = tiling_.gatherBrickView(src_, w, s);
        if (view.empty())
            return nullptr;
        scratch.fill(0);
        for (size_t l = 0; l < view.size(); l++)
            scratch[l] = static_cast<uint8_t>(util::popcount16(view[l]));
        return scratch.data();
    }

  private:
    const sim::LayerTiling &tiling_;
    const dnn::NeuronTensor &src_;
    const sim::LanePopPlanes *planes_;
};

/**
 * One synapse set's neuron popcounts reduced over a pallet's columns:
 * per lane, the busiest column and the column total. A flat 16-lane
 * loop with no branch, so the compiler keeps each in vector
 * registers. The sum is int32: a 16-bit one would wrap past 4096
 * all-ones columns.
 */
struct ColumnReduction
{
    std::array<uint8_t, dnn::kBrickSize> max{};
    std::array<int32_t, dnn::kBrickSize> sum{};

    void
    add(const uint8_t *__restrict pops)
    {
        for (int l = 0; l < dnn::kBrickSize; l++) {
            max[l] = std::max(max[l], pops[l]);
            sum[l] += pops[l];
        }
    }
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
            LanePops scratch{};
            for (size_t s = 0; s < sets.size(); s++) {
                ColumnReduction cols;
                for (const sim::WindowCoord &w : columns)
                    if (const uint8_t *pops =
                            acts.row(w, sets[s], scratch))
                        cols.add(pops);
                // Both weight factors depend on (set, lane) only and
                // are non-negative, so the column max and sum factor
                // out of the per-(column, lane) max and sum exactly.
                const size_t widx = wgt.index(static_cast<int>(s), 0);
                const uint8_t *wgt_max = wgt.maxPop.data() + widx;
                const int32_t *wgt_sum = wgt.sumPop.data() + widx;
                // The one-cycle SB-read floor every pallet-synced
                // model shares.
                int32_t step = 1;
                int64_t terms = 0;
                for (int l = 0; l < dnn::kBrickSize; l++) {
                    step = std::max(step, cols.max[l] * wgt_max[l]);
                    terms += int64_t{cols.sum[l]} * wgt_sum[l];
                }
                acc.processCycles += step;
                acc.terms += terms;
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
