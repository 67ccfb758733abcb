/**
 * @file
 * Shared accelerator configuration (paper Section IV-B).
 *
 * All modeled designs (DaDN, Stripes, Pragmatic) share the DaDianNao
 * organization: 16 tiles, 16 filters per tile, 16 neuron lanes, and a
 * central Neuron Memory (NM) broadcasting neuron bricks to the tiles.
 * The defaults reproduce the configuration of the paper's evaluation.
 * Tile count and pallet width (the machine-shape ablation bench
 * varies them) and the memory hierarchy (--memory) are settable. The
 * brick is fixed at dnn::kBrickSize lanes: the width every packed
 * operand plane, the PIP and the area model are built for.
 */

#pragma once

#include <cstdint>

#include "dnn/tensor.h"
#include "sim/memory/memory_config.h"

namespace pra {
namespace sim {

/** Machine-level configuration shared by every modeled design. */
struct AccelConfig
{
    static constexpr int filtersPerTile = 16; ///< Filter lanes per tile.
    /** Neurons per brick: the packed planes' brick width. */
    static constexpr int neuronLanes = dnn::kBrickSize;
    /**
     * Neurons per NM row. DaDN's NM supplies 256 16-bit neurons per
     * row access (4096 bits); a pallet with unit stride then spans at
     * most two adjacent rows (Section V-A4).
     */
    static constexpr int nmRowNeurons = 256;

    int tiles = 16;            ///< Tiles per chip.
    int windowsPerPallet = 16; ///< PIP columns / bricks per pallet.

    /**
     * Memory-hierarchy design point (global buffer, double-buffered
     * scratchpads, DRAM channel — sim/memory/memory_config.h).
     * Disabled by default: results are compute-only and every
     * committed golden is byte-identical. When enabled, the sweep
     * driver composes each engine's compute cycles with the traffic
     * and stall model of sim/memory/memory_model.h.
     */
    MemoryConfig memory;

    /** Filters processed concurrently by the whole chip. */
    int filtersPerPass() const { return tiles * filtersPerTile; }

    /** Passes over the input needed for a layer with @p filters. */
    int
    passes(int filters) const
    {
        return (filters + filtersPerPass() - 1) / filtersPerPass();
    }

    bool
    valid() const
    {
        return tiles > 0 && windowsPerPallet > 0 && memory.valid();
    }
};

} // namespace sim
} // namespace pra

