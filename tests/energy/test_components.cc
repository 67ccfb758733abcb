/**
 * @file
 * Tests for the bottom-up component area decomposition. These are
 * tolerance checks: the decomposition must track the published
 * per-design ratios, not reproduce synthesis exactly.
 */

#include <gtest/gtest.h>

#include "energy/area_power.h"
#include "energy/components.h"

namespace pra {
namespace energy {
namespace {

/** One synapse set register (256 synapses x 16 bits), um^2. */
double
ssrComponentArea(const PrimitiveCosts &costs = {})
{
    // 16 synapse bricks of 16 x 16-bit synapses plus the 4-bit
    // consumed-columns down counter (Section V-E).
    return (256 * 16.0 + 4.0) * costs.regBit;
}

TEST(Components, TreeWidthFollowsSectionVD)
{
    EXPECT_EQ(pipTreeWidth(0), 16);
    EXPECT_EQ(pipTreeWidth(1), 17);
    EXPECT_EQ(pipTreeWidth(2), 19);
    EXPECT_EQ(pipTreeWidth(3), 23);
    EXPECT_EQ(pipTreeWidth(4), 31);
}

TEST(Components, PrimitivesArePositive)
{
    EXPECT_GT(multiplier16Area(), 0.0);
    EXPECT_GT(adderTreeArea(16, 16), 0.0);
    EXPECT_GT(stripesSipArea(), 0.0);
    EXPECT_GT(ssrComponentArea(), 0.0);
}

TEST(Components, AdderTreeScalesWithShape)
{
    EXPECT_GT(adderTreeArea(16, 32), adderTreeArea(16, 16));
    EXPECT_GT(adderTreeArea(32, 16), adderTreeArea(16, 16));
}

TEST(Components, PipAreaGrowsWithFirstStage)
{
    for (int l = 1; l <= 4; l++)
        EXPECT_GT(pragmaticPipArea(l), pragmaticPipArea(l - 1));
}

TEST(Components, DadnEstimateNearPublished)
{
    // The overhead constant is normalized against this anchor.
    EXPECT_NEAR(dadnUnitAreaEstimate(), dadnAreaPower().unitArea,
                dadnAreaPower().unitArea * 0.15);
}

TEST(Components, RelativeEstimatesTrackPublishedRatios)
{
    // First-principles decomposition tracks the published unit-area
    // ratios within a generous band (it is an estimate, not
    // synthesis).
    double ddn = dadnUnitAreaEstimate();
    for (int l = 0; l <= 4; l++) {
        double model_ratio = pragmaticUnitAreaEstimate(l) / ddn;
        double paper_ratio = pragmaticPalletAreaPower(l).unitArea /
                             dadnAreaPower().unitArea;
        EXPECT_GT(model_ratio, paper_ratio * 0.55) << l;
        EXPECT_LT(model_ratio, paper_ratio * 1.55) << l;
    }
    double stripes_ratio = stripesUnitAreaEstimate() / ddn;
    double paper_stripes = stripesAreaPower().unitArea /
                           dadnAreaPower().unitArea;
    EXPECT_GT(stripes_ratio, paper_stripes * 0.45);
    EXPECT_LT(stripes_ratio, paper_stripes * 1.55);
}

TEST(Components, SsrEstimateNearTableIvFit)
{
    // One SSR holds 256 x 16-bit synapses: ~0.03-0.08 mm^2 routed.
    double est = ssrComponentArea() / 1e6 * PrimitiveCosts{}.overhead;
    EXPECT_GT(est, 0.02);
    EXPECT_LT(est, 0.09);
}

TEST(Components, CustomCostsPropagate)
{
    PrimitiveCosts cheap;
    cheap.faBit = 5.0;
    EXPECT_LT(multiplier16Area(cheap), multiplier16Area());
    EXPECT_LT(dadnUnitAreaEstimate(cheap), dadnUnitAreaEstimate());
}

TEST(Components, BadArgumentsPanics)
{
    EXPECT_DEATH(pragmaticPipArea(7), "bad L");
    EXPECT_DEATH(adderTreeArea(1, 16), "bad shape");
}

} // namespace
} // namespace energy
} // namespace pra
