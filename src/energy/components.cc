#include "energy/components.h"

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace energy {

namespace {

constexpr int kLanes = 16;   // Neuron/synapse lanes per IP unit.
constexpr int kIpUnits = 256; // Inner-product units per tile.

} // namespace

int
pipTreeWidth(int first_stage_bits)
{
    // Section V-D: terms of 16 + 2^L - 1 bits only.
    return 16 + (1 << first_stage_bits) - 1;
}

double
multiplier16Area(const PrimitiveCosts &costs)
{
    // 16x16 partial-product array with carry-save reduction; the 1.4
    // factor covers the Booth/encoding and final carry-propagate row.
    return 16.0 * 16.0 * costs.faBit * 1.4;
}

double
adderTreeArea(int inputs, int width, const PrimitiveCosts &costs)
{
    PRA_CHECK(inputs >= 2 && width > 0,
                         "adderTreeArea: bad shape");
    // inputs-1 adders; widths grow one bit per level, approximated by
    // width + 2 average.
    return (inputs - 1) * (width + 2.0) * costs.faBit;
}

double
stripesSipArea(const PrimitiveCosts &costs)
{
    double and_gates = kLanes * 16.0 * costs.andBit;
    double tree = adderTreeArea(kLanes, 16, costs);
    double accumulator = 32.0 * costs.faBit + 32.0 * costs.regBit +
                         32.0 * costs.muxBit; // add + reg + shift mux.
    double synapse_regs = kLanes * 16.0 * costs.regBit;
    return and_gates + tree + accumulator + synapse_regs;
}

double
pragmaticPipArea(int first_stage_bits, const PrimitiveCosts &costs)
{
    PRA_CHECK(first_stage_bits >= 0 && first_stage_bits <= 4,
                         "pragmaticPipArea: bad L");
    int w = pipTreeWidth(first_stage_bits);
    double stage1 = kLanes * first_stage_bits * w * costs.muxBit;
    double and_gates = kLanes * 16.0 * costs.andBit;
    double neg = kLanes * w * costs.andBit; // 2's-complement negate.
    double tree = adderTreeArea(kLanes, w, costs);
    double stage2 = first_stage_bits < 4
                        ? 4.0 * (w + 19.0) * costs.muxBit
                        : 0.0; // Single-stage design has no stage 2.
    double accumulator = 32.0 * costs.faBit + 32.0 * costs.regBit;
    double synapse_regs = kLanes * 16.0 * costs.regBit;
    return stage1 + and_gates + neg + tree + stage2 + accumulator +
           synapse_regs;
}

double
dadnUnitAreaEstimate(const PrimitiveCosts &costs)
{
    double mults = kIpUnits * multiplier16Area(costs);
    double trees = kLanes * adderTreeArea(17, 32, costs);
    double pipeline = (kIpUnits * 16.0 + 2.0 * kLanes * 16.0) *
                      costs.regBit;
    return (mults + trees + pipeline) * costs.overhead / 1e6;
}

double
stripesUnitAreaEstimate(const PrimitiveCosts &costs)
{
    return kIpUnits * stripesSipArea(costs) * costs.overhead / 1e6;
}

double
pragmaticUnitAreaEstimate(int first_stage_bits,
                          const PrimitiveCosts &costs)
{
    double pips = kIpUnits * pragmaticPipArea(first_stage_bits, costs);
    // Per-column control: 16 oneffset comparators/min logic.
    double control = kLanes * (kLanes * 4.0 * costs.faBit +
                               kLanes * 4.0 * costs.regBit);
    return (pips + control) * costs.overhead / 1e6;
}

} // namespace energy
} // namespace pra
