#include "sim/nm_model.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

int
nmFetchCycles(const LayerTiling &tiling,
              std::span<const WindowCoord> columns,
              const SynapseSetCoord &set)
{
    const AccelConfig &config = tiling.config();
    std::vector<int64_t> rows;
    rows.reserve(config.windowsPerPallet * 2);
    for (const WindowCoord &w : columns) {
        int64_t addr = tiling.brickNmAddress(w, set);
        if (addr < 0)
            continue; // Padding brick: no NM access.
        int64_t first_row = addr / config.nmRowNeurons;
        int64_t last_row = (addr + config.neuronLanes - 1) /
                           config.nmRowNeurons;
        for (int64_t r = first_row; r <= last_row; r++)
            rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    // Even an all-padding step costs one dispatch cycle.
    return std::max<int>(1, static_cast<int>(rows.size()));
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
