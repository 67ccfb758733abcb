#include "models/laconic/laconic.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "sim/operand_planes.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"

namespace pra {
namespace models {

namespace {

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

} // namespace

LaconicEngine::LaconicEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("laconic", knobs, {});
}

sim::LayerResult
LaconicEngine::simulateLayer(const dnn::LayerSpec &layer,
                             const sim::LayerWorkload &workload,
                             const sim::AccelConfig &accel,
                             const sim::SampleSpec &sample,
                             const util::InnerExecutor &exec) const
{
    sim::PalletDriver driver(layer, accel, sample, workload);
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    // Both plane kinds build on first use: resolve them here, before
    // the pallet walk fans out across inner threads.
    const uint8_t *lane_pops = workload.lanePopPlanes().pop.data();
    const sim::WeightBrickPlanes &wgt = workload.weightPlanes(layer);

    sim::PalletTotals totals = driver.forEachPallet(
        exec, [&](std::span<const sim::WindowCoord> columns,
                  sim::PalletTotals &acc) {
            for (size_t s = 0; s < sets.size(); s++) {
                ColumnReduction cols;
                for (const sim::WindowCoord &w : columns) {
                    const int64_t brick = driver.brickIndex(w, sets[s]);
                    if (brick >= 0)
                        cols.add(lane_pops + brick * dnn::kBrickSize);
                }
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
    return driver.result(totals, 1.0);
}

} // namespace models
} // namespace pra
