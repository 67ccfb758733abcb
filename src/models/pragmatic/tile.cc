#include "models/pragmatic/tile.h"

#include <algorithm>
#include <span>
#include <vector>

#include "models/pragmatic/brick_cost.h"
#include "sim/nm_model.h"
#include "sim/pallet_driver.h"

namespace pra {
namespace models {

sim::LayerResult
simulateLayerPalletSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample,
                        const util::InnerExecutor &exec)
{
    sim::PalletDriver driver(layer, accel, sample, workload);
    const sim::LayerTiling &tiling = driver.tiling();
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    const BrickCostModel costs(driver, config.firstStageBits);

    sim::PalletTotals totals = driver.forEachPallet(
        exec, [&](std::span<const sim::WindowCoord> columns,
                  sim::PalletTotals &acc) {
            // Fetch of step (p, s+1) overlaps processing of (p, s):
            // the previous step's processing time hides the current
            // fetch.
            sim::NmOverlapTracker nm;
            int64_t prev_process = 0;
            for (const sim::SynapseSetCoord &set : sets) {
                int max_cycles = 0;
                for (const sim::WindowCoord &w : columns) {
                    BrickCostModel::Cost cost = costs.brick(w, set);
                    max_cycles = std::max(max_cycles, cost.cycles);
                    acc.terms += cost.terms;
                }
                // Even an all-zero pallet step holds the pipeline for
                // the SB read cycle.
                int64_t set_cycles = std::max(1, max_cycles);
                if (config.modelNmStalls)
                    nm.step(prev_process,
                            sim::nmFetchCycles(tiling, columns, set));
                acc.processCycles += set_cycles;
                prev_process = set_cycles;
            }
            acc.stallCycles += nm.totalStalls();
        });
    return driver.result("PRA-pallet", totals, layer.numFilters);
}

} // namespace models
} // namespace pra
