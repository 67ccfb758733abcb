/**
 * @file
 * The pass -> pallet -> synapse-set walk of the value-dependent
 * engines (paper Sections IV-A1 and V-A3).
 *
 * Pragmatic under pallet sync, Dynamic-Stripes and Laconic differ
 * only in what one pallet costs. PalletDriver owns the rest of the
 * walk: the layer's tiling and pallet sample, the synapse-set
 * coordinates, the one rule that maps a (window, set) visit to its
 * brick's position in the stream's planes, the split of the sampled
 * pallets into InnerExecutor blocks, each pallet's active columns,
 * and the LayerResult fields every pallet-synced engine fills the
 * same way. An engine hands forEachPallet() its per-pallet body.
 * Column sync carries SSR and dispatcher state across pallet
 * boundaries, so it walks the sampled pallets itself and takes only
 * the setup, the columns and the result from here.
 *
 * Pallets are mutually independent under pallet synchronization (the
 * NM overlap and run-ahead windows reset at a pallet boundary) and
 * every total is an exact integer, so block totals combined in block
 * order equal the serial walk bit for bit, for any block count.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dnn/layer_spec.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

/** Exact per-pass totals of a pallet walk (see the file comment). */
struct PalletTotals
{
    int64_t processCycles = 0; ///< Cycles spent processing sets.
    int64_t stallCycles = 0;   ///< Cycles lost waiting on NM.
    int64_t terms = 0;         ///< Effectual terms (see result()).
};

/** One layer's pallet walk (see the file comment). */
class PalletDriver
{
  public:
    /**
     * @param workload the stream the engine prices, whose planes
     *                 serve every brick; must outlive the driver.
     */
    PalletDriver(const dnn::LayerSpec &layer, const AccelConfig &accel,
                 const SampleSpec &sample, const LayerWorkload &workload);

    const LayerTiling &tiling() const { return tiling_; }
    const SamplePlan &plan() const { return plan_; }
    const LayerWorkload &workload() const { return workload_; }

    /** Coordinate of set s, for all s in [0, numSynapseSets). */
    const std::vector<SynapseSetCoord> &setCoords() const
    {
        return setCoords_;
    }

    /**
     * Flat position of the brick window @p w reads at set @p s, or -1
     * where the window reads padding: BrickPlanes::index of
     * inputColumn(w, s) and the set's channel brick. The brick's
     * lane-pop row starts at brickIndex * kBrickSize.
     */
    int64_t
    brickIndex(const WindowCoord &w, const SynapseSetCoord &s) const
    {
        const std::optional<InputColumn> at = tiling_.inputColumn(w, s);
        if (!at)
            return -1;
        return (int64_t{at->y} * sizeX_ + at->x) * bricksPerColumn_ +
               s.brickI / dnn::kBrickSize;
    }

    /**
     * Price every sampled pallet: body(columns, totals) adds pallet
     * costs to the running totals, where columns holds the pallet's
     * active window coordinates (LayerTiling::palletColumns). The
     * sampled pallets split into contiguous blocks across @p exec;
     * each block runs its own copy of @p body, so state the body
     * captures by value is block-private scratch. Returns the block
     * totals combined in block order.
     */
    template <typename Body>
    PalletTotals forEachPallet(const util::InnerExecutor &exec,
                               const Body &body) const;

    /**
     * The result fields every pallet-walking engine shares: per-pass
     * @p totals scaled by the passes and the sample, and one SB read
     * per pallet step. @p term_weight is what one counted term
     * stands for: numFilters when the count covers one filter lane,
     * 1 when it already sums every filter.
     */
    LayerResult result(const PalletTotals &totals, double term_weight) const;

  private:
    LayerTiling tiling_;
    SamplePlan plan_;
    const LayerWorkload &workload_;
    int64_t sizeX_;           ///< The stream's (and planes') columns.
    int64_t bricksPerColumn_; ///< ceil(channels / kBrickSize).
    std::vector<SynapseSetCoord> setCoords_;
};

template <typename Body>
PalletTotals
PalletDriver::forEachPallet(const util::InnerExecutor &exec,
                            const Body &body) const
{
    const int64_t units = static_cast<int64_t>(plan_.indices.size());
    const int blocks = exec.blockCount(units);
    std::vector<PalletTotals> partials(
        static_cast<size_t>(std::max(blocks, 1)));
    exec.forEachBlock(blocks, [&](int block) {
        auto [lo, hi] =
            util::InnerExecutor::blockRange(units, blocks, block);
        Body step = body;
        std::vector<WindowCoord> columns;
        PalletTotals acc;
        for (int64_t pi = lo; pi < hi; pi++) {
            tiling_.palletColumns(plan_.indices[static_cast<size_t>(pi)],
                                  columns);
            step(std::span<const WindowCoord>(columns), acc);
        }
        partials[static_cast<size_t>(block)] = acc;
    });
    PalletTotals total;
    for (const PalletTotals &partial : partials) {
        total.processCycles += partial.processCycles;
        total.stallCycles += partial.stallCycles;
        total.terms += partial.terms;
    }
    return total;
}

} // namespace sim
} // namespace pra
