/**
 * @file
 * Bottom-up datapath area decomposition.
 *
 * A first-principles estimate of each design's unit (tile logic)
 * area from gate-level primitives: full-adder bits, AND gates, 2:1
 * mux bits (shifter stages) and register bits, with a global
 * routing/control overhead factor normalized so that the DaDianNao
 * unit lands on its published 1.55 mm^2.
 *
 * This model is *secondary*: the benches report the published-anchor
 * model of area_power.h, while this decomposition documents where the
 * area goes and lets the ablation bench explore unpublished design
 * points (e.g. wider bricks). Tests assert it tracks the published
 * per-design ratios to within a generous tolerance — it is an
 * estimate, not a synthesis flow.
 */

#pragma once

namespace pra {
namespace energy {

/** Gate-level primitive areas in um^2 (65 nm, routed). */
struct PrimitiveCosts
{
    double faBit = 10.0;   ///< Full-adder bit including routing.
    double andBit = 1.5;   ///< AND gate per bit.
    double muxBit = 4.0;   ///< 2:1 mux bit (one shifter stage bit).
    double regBit = 6.0;   ///< Flip-flop bit.
    /** Global routing/control overhead multiplier. */
    double overhead = 1.48;
};

/** Adder-tree width after the first level for @p input_bits inputs. */
int pipTreeWidth(int first_stage_bits);

/** One 16x16 bit-parallel multiplier, um^2. */
double multiplier16Area(const PrimitiveCosts &costs = {});

/** One 16-input adder tree of @p width bits, um^2. */
double adderTreeArea(int inputs, int width,
                     const PrimitiveCosts &costs = {});

/** One Stripes serial inner-product unit (16 lanes), um^2. */
double stripesSipArea(const PrimitiveCosts &costs = {});

/**
 * One Pragmatic inner-product unit with first-stage shifters of
 * @p first_stage_bits bits (Figures 6 and 7a), um^2.
 */
double pragmaticPipArea(int first_stage_bits,
                        const PrimitiveCosts &costs = {});

/** DaDianNao unit (256 multipliers + 16 trees + pipeline), mm^2. */
double dadnUnitAreaEstimate(const PrimitiveCosts &costs = {});

/** Stripes unit (256 SIPs), mm^2. */
double stripesUnitAreaEstimate(const PrimitiveCosts &costs = {});

/** Pragmatic unit (256 PIPs + column control), mm^2. */
double pragmaticUnitAreaEstimate(int first_stage_bits,
                                 const PrimitiveCosts &costs = {});

} // namespace energy
} // namespace pra

