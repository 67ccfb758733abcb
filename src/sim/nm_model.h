/**
 * @file
 * Neuron Memory access-cost model (paper Section V-A4).
 *
 * The central NM is single-ported; the dispatcher assembles the
 * neuron bricks a pallet step needs, one per active column
 * (AccelConfig::windowsPerPallet of them, 16 in the paper's machine).
 * With unit stride the bricks fall in one or two adjacent NM rows
 * (1-2 cycles); larger strides spread them over more rows. Fetch
 * overlaps with processing: a step that takes PC cycles to process
 * hides up to PC cycles of the *next* step's NMC fetch cycles.
 *
 * Counting the rows needs no sort. A brick never straddles an NM row,
 * because the row (nmRowNeurons = 256) is a multiple of the brick
 * (16), and within one step the pallet's bricks come in address
 * order: a pallet's columns are consecutive windows, so x rises
 * within an output row, and a wrap to the next output row adds
 * stride * inputX bricks, more than any x drop between two real
 * (non-padding) bricks. So the distinct rows are the row changes
 * along the walk.
 */

#pragma once

#include <cstdint>
#include <span>

#include "sim/accel_config.h"
#include "sim/tiling.h"

namespace pra {
namespace sim {

/**
 * Cycles to fetch one pallet step's bricks from NM: the number of
 * distinct NM rows covering them (padding bricks are free; an
 * all-padding step still takes one cycle). One pass, no allocation:
 * see the file comment.
 *
 * @param tiling  layer tiling (provides brick addresses).
 * @param columns the pallet's active columns in column order
 *                (LayerTiling::palletColumns).
 * @param set     the synapse-set coordinate.
 */
int nmFetchCycles(const LayerTiling &tiling,
                  std::span<const WindowCoord> columns,
                  const SynapseSetCoord &set);

/**
 * Running fetch/process overlap (max(NMC, PC) of Section V-A4):
 * tracks the NM stall cycles a stream of steps accumulates.
 */
class NmOverlapTracker
{
  public:
    NmOverlapTracker() = default;

    /**
     * Account one step: the step's processing takes @p process_cycles
     * while the *next* step's fetch needs @p next_fetch_cycles.
     * Returns the stall added (0 when the fetch is fully hidden).
     */
    int64_t step(int64_t process_cycles, int64_t next_fetch_cycles);

    int64_t totalStalls() const { return stalls_; }

  private:
    int64_t stalls_ = 0;
};

} // namespace sim
} // namespace pra

