/**
 * @file
 * Fixed-point oracles of the fixedpoint tests: the shift-and-add
 * multiply, the inverse of the oneffset encoding and its storage
 * cost, the essential-bit fraction over all values, and a precision
 * window's trim and the magnitude it loses. No program reads these;
 * the tests check the library's encodings, counts and profiled
 * windows against them.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "fixedpoint/fixed_point.h"
#include "fixedpoint/oneffset.h"
#include "fixedpoint/precision.h"
#include "util/bits.h"
#include "util/check.h"

namespace pra {
namespace fixedpoint {

/**
 * Multiply a signed synapse by an unsigned neuron using the
 * shift-and-add decomposition n*s = sum over set bits i of (s << i):
 * the arithmetic a PIP spreads over cycles, which must equal the
 * ordinary product.
 */
inline int64_t
shiftAddMultiply(int16_t synapse, uint16_t neuron)
{
    int64_t acc = 0;
    uint16_t rest = neuron;
    while (rest != 0) {
        int pos = std::countr_zero(rest);
        acc += static_cast<int64_t>(synapse) << pos;
        rest = static_cast<uint16_t>(rest & (rest - 1));
    }
    return acc;
}

/**
 * Average fraction of set bits per value over @p values, measured
 * against a @p width-bit representation (paper Table I, "All").
 */
inline double
essentialBitFraction(std::span<const uint16_t> values, int width)
{
    PRA_CHECK(width > 0 && width <= 16, "essentialBitFraction: bad width");
    if (values.empty())
        return 0.0;
    uint64_t set_bits = 0;
    for (uint16_t v : values)
        set_bits += static_cast<uint64_t>(essentialBits(v));
    return static_cast<double>(set_bits) /
           (static_cast<double>(values.size()) * width);
}

/**
 * Rebuild the positional value from an oneffset list; the inverse of
 * encodeOneffsets(). Panics on malformed lists (duplicate powers,
 * missing eon).
 */
inline uint16_t
decodeOneffsets(const std::vector<Oneffset> &offsets)
{
    PRA_CHECK(!offsets.empty(), "decodeOneffsets: empty list");
    PRA_CHECK(offsets.back().eon, "decodeOneffsets: missing end-of-neuron");
    uint16_t value = 0;
    for (size_t i = 0; i < offsets.size(); i++) {
        const Oneffset &entry = offsets[i];
        PRA_CHECK(entry.eon == (i + 1 == offsets.size()),
                  "decodeOneffsets: eon not on last entry");
        if (!entry.valid) {
            PRA_CHECK(offsets.size() == 1,
                      "decodeOneffsets: null entry in non-zero neuron");
            return 0;
        }
        uint16_t bit = static_cast<uint16_t>(1u << entry.pow);
        PRA_CHECK((value & bit) == 0, "decodeOneffsets: duplicate power");
        value = static_cast<uint16_t>(value | bit);
    }
    return value;
}

/**
 * Storage cost in bits of the oneffset representation of @p neuron:
 * 5 bits per entry (4-bit pow + eon). The paper notes this can exceed
 * 16 bits, which is why the representation is generated on the fly
 * rather than stored (Section V-A1).
 */
inline int
oneffsetStorageBits(uint16_t neuron)
{
    // A zero neuron still needs its null entry.
    int entries = neuron == 0 ? 1 : util::popcount16(neuron);
    return entries * 5;
}

/** Trim a neuron to the window: the hardware's AND-gate masking. */
inline uint16_t
trimToWindow(uint16_t neuron, const PrecisionWindow &window)
{
    return static_cast<uint16_t>(neuron & window.mask());
}

/**
 * Fraction of the values' total magnitude lost when trimming each to
 * @p window; the quantity profileWindow() bounds by its tolerance.
 */
inline double
trimLossFraction(std::span<const uint16_t> values,
                 const PrecisionWindow &window)
{
    double total = 0.0;
    double lost = 0.0;
    for (uint16_t v : values) {
        total += static_cast<double>(v);
        lost += static_cast<double>(v - trimToWindow(v, window));
    }
    return total > 0.0 ? lost / total : 0.0;
}

} // namespace fixedpoint
} // namespace pra
