/**
 * @file
 * Per-layer reduced-precision windows (paper Sections II, V-F).
 *
 * Stripes and PRA-red rely on profiled per-layer precisions in the
 * style of Judd et al.: for each layer there is a window of bit
 * positions [lsb, msb] outside of which bits can be zeroed without
 * hurting network accuracy. The hardware applies the window as an AND
 * mask on the neurons written to the Neuron Memory ("The hardware
 * trims the output neurons before writing them to NM using AND gates
 * and precision derived bit masks", Section V-F).
 */

#pragma once

#include <cstdint>
#include <span>

namespace pra {
namespace fixedpoint {

/**
 * A contiguous window of retained bit positions [lsb, msb] within the
 * 16-bit storage format. bits() is the per-layer precision p that
 * Stripes processes serially.
 */
struct PrecisionWindow
{
    int msb = 15;  ///< Highest retained bit position.
    int lsb = 0;   ///< Lowest retained bit position.

    /** Precision in bits: the p of the paper's Table II. */
    int bits() const { return msb - lsb + 1; }

    /** AND mask keeping exactly the window's bit positions. */
    uint16_t mask() const;

    /** True when 0 <= lsb <= msb <= 15. */
    bool valid() const { return lsb >= 0 && lsb <= msb && msb <= 15; }

    bool operator==(const PrecisionWindow &other) const = default;
};

/**
 * Profile the precision window needed by a set of neuron values.
 *
 * Mirrors the spirit of Judd et al.'s method: the msb is the highest
 * bit position used by any value; the lsb is then raised as long as
 * the total magnitude lost by masking the suffix bits stays below
 * @p tolerance (a fraction of the total magnitude of all values).
 * tolerance == 0 keeps every used bit.
 */
PrecisionWindow profileWindow(std::span<const uint16_t> values,
                              double tolerance = 0.01);

} // namespace fixedpoint
} // namespace pra

