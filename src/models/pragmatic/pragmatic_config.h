/**
 * @file
 * A Pragmatic design point: the knobs both sync schemes' kernels
 * (tile.h, column_sync.h) and the engine adapter
 * (pragmatic_engine.h) share.
 */

#pragma once

#include <string>

namespace pra {
namespace models {

/** Neuron storage representation (paper Sections VI-B vs VI-F). */
enum class Representation { Fixed16, Quant8 };

/** Neuron lane synchronization scheme (Sections V-A4 vs V-E). */
enum class SyncScheme { Pallet, PerColumn };

/** A full Pragmatic design point. */
struct PragmaticConfig
{
    int firstStageBits = 2;      ///< L (0..4); 4 == single-stage.
    SyncScheme sync = SyncScheme::Pallet;
    int ssrCount = 1;            ///< Per-column SSRs; 0 = ideal.
    bool softwareTrim = true;    ///< Section V-F precision masking.
    Representation representation = Representation::Fixed16;
    bool modelNmStalls = true;   ///< Model dispatcher/NM fetch overlap.

    /** Short label, e.g. "PRA-2b" or "PRA-2b-1R". */
    std::string label() const;
};

} // namespace models
} // namespace pra
