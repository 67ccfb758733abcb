/**
 * @file
 * Tests pinning the area/power model to the paper's Tables III/IV.
 */

#include <gtest/gtest.h>

#include "energy/area_power.h"

namespace pra {
namespace energy {
namespace {

/**
 * Fraction of DaDN's chip power attributed to the memory blocks; a
 * calibration choice that no area/power figure reads.
 */
double
memoryPowerShare()
{
    return 0.45;
}

/** Memory blocks' power in W (constant across designs). */
double
memoryPower()
{
    return memoryPowerShare() * 18.8; // DaDN's Table III chip power.
}

TEST(AreaPower, DadnAnchors)
{
    AreaPower ddn = dadnAreaPower();
    EXPECT_DOUBLE_EQ(ddn.unitArea, 1.55);
    EXPECT_NEAR(ddn.chipArea, 90.0, 0.5);
    EXPECT_DOUBLE_EQ(ddn.chipPower, 18.8);
}

TEST(AreaPower, StripesAnchors)
{
    AreaPower str = stripesAreaPower();
    EXPECT_DOUBLE_EQ(str.unitArea, 3.05);
    EXPECT_NEAR(str.chipArea, 114.0, 0.5);
    EXPECT_DOUBLE_EQ(str.chipPower, 30.2);
}

TEST(AreaPower, PragmaticPalletTableIII)
{
    const double unit[5] = {3.11, 3.16, 3.54, 4.41, 5.75};
    const double chip[5] = {115, 116, 122, 136, 157};
    const double power[5] = {31.4, 34.5, 38.2, 43.8, 51.6};
    for (int l = 0; l <= 4; l++) {
        AreaPower ap = pragmaticPalletAreaPower(l);
        EXPECT_DOUBLE_EQ(ap.unitArea, unit[l]) << l;
        EXPECT_NEAR(ap.chipArea, chip[l], 1.0) << l;
        EXPECT_DOUBLE_EQ(ap.chipPower, power[l]) << l;
    }
}

TEST(AreaPower, ColumnSyncTableIV)
{
    const struct { int ssrs; double unit; double chip; double power; }
        rows[] = {{1, 3.58, 122, 38.8},
                  {4, 3.73, 125, 40.8},
                  {16, 4.33, 134, 49.1}};
    for (const auto &row : rows) {
        AreaPower ap = pragmaticColumnAreaPower(2, row.ssrs);
        EXPECT_DOUBLE_EQ(ap.unitArea, row.unit) << row.ssrs;
        EXPECT_NEAR(ap.chipArea, row.chip, 1.0) << row.ssrs;
        EXPECT_DOUBLE_EQ(ap.chipPower, row.power) << row.ssrs;
    }
}

TEST(AreaPower, RelativeAreasMatchPaperDeltas)
{
    // Table III's delta-area rows: STR 1.97x, PRA-2b 2.29x unit;
    // chip 1.27x and 1.35x.
    AreaPower ddn = dadnAreaPower();
    EXPECT_NEAR(stripesAreaPower().unitArea / ddn.unitArea, 1.97, 0.02);
    AreaPower p2b = pragmaticPalletAreaPower(2);
    EXPECT_NEAR(p2b.unitArea / ddn.unitArea, 2.29, 0.02);
    EXPECT_NEAR(p2b.chipArea / ddn.chipArea, 1.35, 0.02);
    EXPECT_NEAR(p2b.chipPower / ddn.chipPower, 2.03, 0.02);
}

TEST(AreaPower, MemoryAreaConsistentAcrossDesigns)
{
    // chipArea - 16 * unitArea must be the shared memory area.
    for (const AreaPower &ap :
         {dadnAreaPower(), stripesAreaPower(),
          pragmaticPalletAreaPower(0), pragmaticPalletAreaPower(4),
          pragmaticColumnAreaPower(2, 4)}) {
        EXPECT_NEAR(ap.chipArea - 16.0 * ap.unitArea, memoryArea(),
                    0.01)
            << ap.design;
    }
}

TEST(AreaPower, MonotoneInFirstStageBits)
{
    for (int l = 1; l <= 4; l++) {
        EXPECT_GT(pragmaticPalletAreaPower(l).unitArea,
                  pragmaticPalletAreaPower(l - 1).unitArea);
        EXPECT_GT(pragmaticPalletAreaPower(l).chipPower,
                  pragmaticPalletAreaPower(l - 1).chipPower);
    }
}

TEST(AreaPower, SsrAreaFitMatchesTableIV)
{
    // ~0.05 mm^2 per SSR, consistent with the 1R->16R delta.
    EXPECT_NEAR(ssrUnitArea(), 0.05, 0.01);
    // Interpolated 8-SSR point sits between the published 4 and 16.
    AreaPower r8 = pragmaticColumnAreaPower(2, 8);
    EXPECT_GT(r8.unitArea, pragmaticColumnAreaPower(2, 4).unitArea);
    EXPECT_LT(r8.unitArea, pragmaticColumnAreaPower(2, 16).unitArea);
    EXPECT_GT(r8.chipPower, pragmaticColumnAreaPower(2, 4).chipPower);
    EXPECT_LT(r8.chipPower, pragmaticColumnAreaPower(2, 16).chipPower);
}

TEST(AreaPower, ColumnSyncComposesForOtherL)
{
    // Non-2b column configs compose from the pallet base + control +
    // SSRs and stay ordered.
    AreaPower l0 = pragmaticColumnAreaPower(0, 1);
    AreaPower l4 = pragmaticColumnAreaPower(4, 1);
    EXPECT_GT(l4.unitArea, l0.unitArea);
    EXPECT_GT(l0.unitArea, pragmaticPalletAreaPower(0).unitArea);
}

TEST(AreaPower, MemoryPowerShareIsPlausible)
{
    EXPECT_GT(memoryPowerShare(), 0.2);
    EXPECT_LT(memoryPowerShare(), 0.8);
    EXPECT_NEAR(memoryPower(),
                memoryPowerShare() * dadnAreaPower().chipPower, 1e-9);
}

TEST(EnergyEfficiency, PaperFigure11Identities)
{
    // Section VI-D's numbers follow from eff = speedup * P_b / P_n:
    // STR at 1.85x speedup and 30.2 W -> ~1.16x efficiency.
    double str = energyEfficiency(1.85, 18.8, 30.2);
    EXPECT_NEAR(str, 1.16, 0.02);
    // PRA-4b at 2.59x -> ~0.95 (5% LESS efficient).
    double pra4 = energyEfficiency(2.59, 18.8, 51.6);
    EXPECT_NEAR(pra4, 0.95, 0.02);
    // PRA-2b at 2.59x -> ~1.28.
    double pra2 = energyEfficiency(2.59, 18.8, 38.2);
    EXPECT_NEAR(pra2, 1.28, 0.02);
    // PRA-2b-1R at 3.1x -> ~1.48.
    double pra2r = energyEfficiency(3.1, 18.8, 38.8);
    EXPECT_NEAR(pra2r, 1.50, 0.03);
}

TEST(EnergyEfficiency, RejectsBadInput)
{
    EXPECT_DEATH(energyEfficiency(0.0, 1.0, 1.0), "non-positive");
    EXPECT_DEATH(energyEfficiency(1.0, 0.0, 1.0), "non-positive");
}

TEST(AreaPower, BadArgumentsPanics)
{
    EXPECT_DEATH(pragmaticPalletAreaPower(5), "bad L");
    EXPECT_DEATH(pragmaticColumnAreaPower(2, 0), "SSR");
}

} // namespace
} // namespace energy
} // namespace pra
