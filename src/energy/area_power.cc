#include "energy/area_power.h"

#include <array>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace energy {

namespace {

/**
 * Published Table III anchors (pallet synchronization):
 * unit area [mm^2] and chip power [W] for DDN, STR and PRA 0b..4b.
 */
struct Anchor
{
    const char *name;
    double unitArea;
    double chipPower;
};

constexpr Anchor kDadn = {"DaDN", 1.55, 18.8};
constexpr Anchor kStripes = {"Stripes", 3.05, 30.2};
constexpr std::array<Anchor, 5> kPragmaticPallet = {{
    {"PRA-0b", 3.11, 31.4},
    {"PRA-1b", 3.16, 34.5},
    {"PRA-2b", 3.54, 38.2},
    {"PRA-3b", 4.41, 43.8},
    {"PRA-4b", 5.75, 51.6},
}};

/**
 * Published Table IV anchors (column synchronization, PRA-2b):
 * SSR count -> (unit area, chip power).
 */
constexpr std::array<std::pair<int, Anchor>, 3> kPragmaticColumn = {{
    {1, {"PRA-2b-1R", 3.58, 38.8}},
    {4, {"PRA-2b-4R", 3.73, 40.8}},
    {16, {"PRA-2b-16R", 4.33, 49.1}},
}};

constexpr double kMemoryArea = 65.2;     // Derived: chip - 16*unit.
constexpr int kUnits = 16;

AreaPower
fromAnchor(const Anchor &anchor)
{
    AreaPower ap;
    ap.design = anchor.name;
    ap.unitArea = anchor.unitArea;
    ap.chipArea = kUnits * anchor.unitArea + kMemoryArea;
    ap.chipPower = anchor.chipPower;
    return ap;
}

} // namespace

double
memoryArea()
{
    return kMemoryArea;
}

AreaPower
dadnAreaPower()
{
    return fromAnchor(kDadn);
}

AreaPower
stripesAreaPower()
{
    return fromAnchor(kStripes);
}

AreaPower
pragmaticPalletAreaPower(int first_stage_bits)
{
    PRA_CHECK(first_stage_bits >= 0 && first_stage_bits <= 4,
                         "pragmaticPalletAreaPower: bad L");
    return fromAnchor(kPragmaticPallet[first_stage_bits]);
}

double
ssrUnitArea()
{
    // Fitted from Table IV: (4.33 - 3.58) / (16 - 1) mm^2 per SSR.
    return (kPragmaticColumn[2].second.unitArea -
            kPragmaticColumn[0].second.unitArea) /
           (kPragmaticColumn[2].first - kPragmaticColumn[0].first);
}

AreaPower
pragmaticColumnAreaPower(int first_stage_bits, int ssr_count)
{
    PRA_CHECK(first_stage_bits >= 0 && first_stage_bits <= 4,
                         "pragmaticColumnAreaPower: bad L");
    PRA_CHECK(ssr_count >= 1,
                         "pragmaticColumnAreaPower: need >= 1 SSR");

    // Exact published anchors for the evaluated PRA-2b points.
    if (first_stage_bits == 2) {
        for (const auto &[count, anchor] : kPragmaticColumn)
            if (count == ssr_count)
                return fromAnchor(anchor);
    }

    // Otherwise compose: pallet-sync datapath + per-column control
    // overhead + linear SSR area, with power interpolated the same
    // way Table IV relates to Table III for PRA-2b.
    AreaPower base = pragmaticPalletAreaPower(first_stage_bits);
    const Anchor &ref_pallet = kPragmaticPallet[2];
    const Anchor &ref_1r = kPragmaticColumn[0].second;
    double control_area = ref_1r.unitArea - ref_pallet.unitArea -
                          ssrUnitArea(); // 1R includes one SSR.
    double power_per_ssr =
        (kPragmaticColumn[2].second.chipPower - ref_1r.chipPower) /
        (kPragmaticColumn[2].first - kPragmaticColumn[0].first);
    double control_power = ref_1r.chipPower - ref_pallet.chipPower -
                           power_per_ssr;

    AreaPower ap;
    ap.design = "PRA-" + std::to_string(first_stage_bits) + "b-" +
                std::to_string(ssr_count) + "R";
    ap.unitArea = base.unitArea + control_area +
                  ssrUnitArea() * ssr_count;
    ap.chipArea = kUnits * ap.unitArea + kMemoryArea;
    ap.chipPower = base.chipPower + control_power +
                   power_per_ssr * ssr_count;
    return ap;
}

double
energyEfficiency(double speedup, double base_power, double new_power)
{
    PRA_CHECK(speedup > 0.0 && base_power > 0.0 &&
                             new_power > 0.0,
                         "energyEfficiency: non-positive inputs");
    return speedup * base_power / new_power;
}

} // namespace energy
} // namespace pra
