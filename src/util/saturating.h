/**
 * @file
 * Saturating unsigned 64-bit arithmetic.
 *
 * Cycle timestamps in the serving simulator are uint64_t and several
 * of them are user-controlled (--timeout, --backoff, --mtbf): naive
 * addition wraps for huge values and a wrapped deadline silently
 * reorders the event timeline. These helpers clamp to UINT64_MAX
 * instead, which the serving layer treats as "never" (kNeverFills /
 * kNoFault are both UINT64_MAX), so a saturated time stays on the
 * correct side of every comparison.
 */

#pragma once

#include <cstdint>
#include <limits>

namespace pra {
namespace util {

/** a + b, clamped to UINT64_MAX instead of wrapping. */
inline constexpr uint64_t
saturatingAdd(uint64_t a, uint64_t b)
{
    return a > std::numeric_limits<uint64_t>::max() - b
               ? std::numeric_limits<uint64_t>::max()
               : a + b;
}

/** a << shift, clamped to UINT64_MAX instead of losing high bits. */
inline constexpr uint64_t
saturatingShl(uint64_t a, int shift)
{
    if (a == 0)
        return 0;
    if (shift >= 64)
        return std::numeric_limits<uint64_t>::max();
    return a > (std::numeric_limits<uint64_t>::max() >> shift)
               ? std::numeric_limits<uint64_t>::max()
               : a << shift;
}

} // namespace util
} // namespace pra
