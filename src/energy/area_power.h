/**
 * @file
 * Area and power model (paper Section VI-B2, VI-C2, VI-D;
 * Tables III and IV).
 *
 * The paper obtains area and power from Synopsys Design Compiler
 * synthesis on TSMC 65 nm plus CACTI/Destiny for the memories. That
 * flow is not reproducible offline, so this module is calibrated to
 * the paper's published component totals (see DESIGN.md §3):
 *
 *  - the published per-design unit areas and chip powers are the
 *    model's anchor points;
 *  - the memory area (NM + SB + buffers) is derived from the
 *    published numbers as chipArea - 16 * unitArea, constant
 *    ~65.2 mm^2 across designs — a strong internal consistency check;
 *  - column-sync SSRs add a fitted ~0.047 mm^2 per register per unit,
 *    matching Table IV to within rounding;
 *  - chip power splits into a constant memory share plus 16 unit
 *    shares, with the memory share a documented calibration choice.
 *
 * Energy efficiency (Figure 11) combines these powers with the cycle
 * counts *our* simulator measures: eff = E_base / E_new =
 * speedup * P_base / P_new.
 */

#pragma once

#include <string>

namespace pra {
namespace energy {

/** Area/power summary of one design point. */
struct AreaPower
{
    std::string design;
    double unitArea = 0.0;  ///< One tile's logic, mm^2 (excl. SB/NB).
    double chipArea = 0.0;  ///< 16 units + all memory blocks, mm^2.
    double chipPower = 0.0; ///< Total chip power, W.
};

/** Memory blocks' (NM + SB + NBin/NBout) area in mm^2 (~65.2). */
double memoryArea();

/** DaDianNao baseline. */
AreaPower dadnAreaPower();

/** Stripes. */
AreaPower stripesAreaPower();

/**
 * Pragmatic with pallet synchronization and first-stage shifter
 * width @p first_stage_bits (0..4; 4 = single-stage PRA).
 */
AreaPower pragmaticPalletAreaPower(int first_stage_bits);

/**
 * Pragmatic-2b with per-column synchronization and @p ssr_count
 * synapse set registers (anchored at the published 1/4/16 points,
 * linear in between/beyond).
 */
AreaPower pragmaticColumnAreaPower(int first_stage_bits, int ssr_count);

/** Fitted incremental unit area of one SSR, mm^2. */
double ssrUnitArea();

/**
 * Relative energy efficiency of a design against a baseline:
 * (P_base * C_base) / (P_new * C_new) = speedup * P_base / P_new.
 */
double energyEfficiency(double speedup, double base_power,
                        double new_power);

} // namespace energy
} // namespace pra

