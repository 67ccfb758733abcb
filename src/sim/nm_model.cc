#include "sim/nm_model.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

int
nmFetchCycles(const LayerTiling &tiling,
              std::span<const WindowCoord> columns,
              const SynapseSetCoord &set)
{
    // A brick never straddles a row, and the walk visits rows in
    // address order (see the header), so the distinct rows are the
    // row changes along it.
    static_assert(AccelConfig::nmRowNeurons % AccelConfig::neuronLanes ==
                      0,
                  "a brick must fit in one NM row");
    int rows = 0;
    int64_t last_row = -1;
    for (const WindowCoord &w : columns) {
        const int64_t addr = tiling.brickNmAddress(w, set);
        if (addr < 0)
            continue; // Padding brick: no NM access.
        const int64_t row = addr / AccelConfig::nmRowNeurons;
        PRA_DCHECK(row >= last_row,
                   "nmFetchCycles: pallet bricks out of address order");
        rows += row != last_row;
        last_row = row;
    }
    // Even an all-padding step costs one dispatch cycle.
    return std::max(1, rows);
}

int64_t
NmOverlapTracker::step(int64_t process_cycles, int64_t next_fetch_cycles)
{
    PRA_CHECK(process_cycles >= 0 && next_fetch_cycles >= 0,
                         "NmOverlapTracker: negative cycles");
    int64_t stall = std::max<int64_t>(0, next_fetch_cycles -
                                             process_cycles);
    stalls_ += stall;
    return stall;
}

} // namespace sim
} // namespace pra
