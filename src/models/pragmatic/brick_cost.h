/**
 * @file
 * Per-brick schedule-cycle and term-count resolution of the Pragmatic
 * pallet- and column-sync engines.
 *
 * Both engines fundamentally consume, per (window, synapse set), the
 * brick's PIP schedule length and its effectual-term (set-bit) count.
 * The brick is the one the driver's brickIndex names; its term count
 * is a single lookup in the workload's packed brick planes and the
 * schedule length resolves from tables for *every* first-stage
 * width:
 *
 *   cycles(L=0) == orPop   (distinct oneffset positions),
 *   cycles(L=4) == maxPop  (busiest lane), and
 *   cycles(L=1..3)         from the workload's memoized cycle plane
 *                          (exact brickScheduleCycles per brick,
 *                          built by the batched scheduleCyclesRow
 *                          kernel: once per workload for all the
 *                          widths its grid reads, else once per
 *                          (workload, L); see
 *                          PragmaticEngine::cycleWidths)
 *
 * so brick() is a pure table lookup on the hot path. When the cycle
 * planes are force-disabled (sim::setCyclePlanesEnabled) the
 * intermediate widths fall back to the orPop == maxPop monotonicity
 * short-circuit and, only where the bounds disagree, the cycle-by-
 * cycle schedule on a zero-copy view of the workload's tensor — the
 * identities and the monotonicity are asserted by the schedule test
 * suite, and both ways are bit-identical by construction.
 */

#pragma once

#include <cstdint>

#include "models/pragmatic/schedule.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"

namespace pra {
namespace models {

/** Resolves brick costs for one layer stream (see file comment). */
class BrickCostModel
{
  public:
    /** Schedule cycles and term count of one brick; {0, 0} = padding. */
    struct Cost
    {
        int cycles = 0;
        int32_t terms = 0;
    };

    /**
     * Resolve brick costs for @p driver's stream at first-stage
     * width @p first_stage_bits (L): from the workload's brick planes
     * and, for L in 1..3, its memoized cycle plane. Must not outlive
     * the driver.
     */
    BrickCostModel(const sim::PalletDriver &driver, int first_stage_bits)
        : driver_(driver), planes_(driver.workload().brickPlanes()),
          cycles_(first_stage_bits >= 1 &&
                          first_stage_bits < kMaxFirstStageBits &&
                          sim::cyclePlanesEnabled()
                      ? driver.workload().cyclePlane(first_stage_bits).data()
                      : nullptr),
          bits_(first_stage_bits)
    {
    }

    Cost
    brick(const sim::WindowCoord &w, const sim::SynapseSetCoord &s) const
    {
        const int64_t at = driver_.brickIndex(w, s);
        if (at < 0)
            return {};
        const size_t idx = static_cast<size_t>(at);
        Cost cost;
        cost.terms = planes_.pop[idx];
        int max_pop = planes_.maxPop[idx];
        if (bits_ == 0)
            cost.cycles = planes_.orPop[idx];
        else if (bits_ >= kMaxFirstStageBits)
            cost.cycles = max_pop;
        else if (cycles_)
            cost.cycles = cycles_[idx];
        else if (planes_.orPop[idx] == max_pop)
            cost.cycles = max_pop;
        else
            cost.cycles = brickScheduleCycles(
                driver_.tiling().gatherBrickView(
                    driver_.workload().tensor(), w, s),
                bits_);
        return cost;
    }

  private:
    const sim::PalletDriver &driver_;
    const sim::BrickPlanes &planes_;
    const uint8_t *cycles_;
    int bits_;
};

} // namespace models
} // namespace pra

