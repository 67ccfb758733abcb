/**
 * @file
 * The pass -> pallet -> synapse-set walk of the value-dependent
 * engines (paper Sections IV-A1 and V-A3).
 *
 * Pragmatic under pallet sync, Dynamic-Stripes and Laconic differ
 * only in what one pallet costs. PalletDriver owns the rest of the
 * walk: the layer's tiling and pallet sample, the synapse-set
 * coordinates, the stream's operand planes, the split of the sampled
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
#include <span>
#include <string>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/operand_planes.h"
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
     * @param input    the stream the engine prices; must outlive the
     *                 driver.
     * @param workload the workload whose planes summarize @p input,
     *                 or nullptr to resolve every brick from the
     *                 tensor.
     */
    PalletDriver(const dnn::LayerSpec &layer, const AccelConfig &accel,
                 const SampleSpec &sample,
                 const dnn::NeuronTensor &input,
                 const LayerWorkload *workload);

    const LayerTiling &tiling() const { return tiling_; }
    const SamplePlan &plan() const { return plan_; }
    const dnn::NeuronTensor &input() const { return input_; }

    /** Coordinate of set s, for all s in [0, numSynapseSets). */
    const std::vector<SynapseSetCoord> &setCoords() const
    {
        return setCoords_;
    }

    /** The workload whose shared planes apply (nullptr: tensor path). */
    const LayerWorkload *planeWorkload() const { return planes_; }

    /** The stream's shared planes (nullptr on the tensor path). */
    const BrickPlanes *brickPlanes() const
    {
        return planes_ ? &planes_->brickPlanes() : nullptr;
    }
    const LanePopPlanes *lanePopPlanes() const
    {
        return planes_ ? &planes_->lanePopPlanes() : nullptr;
    }

    /**
     * The layer's weight-side planes: the workload's shared planes,
     * or on the tensor path a driver-local synthetic build. Built on
     * first call and not synchronized: resolve them before
     * forEachPallet.
     */
    const WeightBrickPlanes &weightPlanes() const;

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
    LayerResult result(std::string engine, const PalletTotals &totals,
                       double term_weight) const;

  private:
    LayerTiling tiling_;
    SamplePlan plan_;
    const dnn::NeuronTensor &input_;
    const LayerWorkload *planes_;
    std::vector<SynapseSetCoord> setCoords_;
    mutable const WeightBrickPlanes *weightPlanes_ = nullptr;
    mutable WeightBrickPlanes localWeights_;
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
