/**
 * @file
 * Inline bit counting: popcount16 for 16-bit codes, popcount32 for
 * the 32-bit values the activation calibration sums over.
 *
 * Pragmatic and Laconic price essential (set) bits, so a popcount over
 * codes is the simulator's basic reduction. On the x86-64 baseline
 * ISA (no POPCNT), GCC lowers std::popcount to an out-of-line libgcc
 * call, which also keeps the loops around it scalar. popcount16 is a
 * branch-free SWAR count in plain integer arithmetic: it inlines, and
 * the compiler can vectorize the loops that use it. Every popcount
 * under src/ goes through here (pra_lint's std-popcount rule).
 */

#pragma once

#include <cstdint>

namespace pra {
namespace util {

/** Number of set bits of @p v (0..16). */
inline constexpr int
popcount16(uint16_t v)
{
    // Pairwise, then nibble, then byte sums; every step stays within
    // 16 bits, so a vectorized loop can keep 16-bit lanes.
    uint16_t x = static_cast<uint16_t>(v - ((v >> 1) & 0x5555u));
    x = static_cast<uint16_t>((x & 0x3333u) + ((x >> 2) & 0x3333u));
    x = static_cast<uint16_t>((x + (x >> 4)) & 0x0f0fu);
    return static_cast<int>((x + (x >> 8)) & 0x1fu);
}

/** Number of set bits of @p v (0..32), by the same SWAR steps. */
inline constexpr int
popcount32(uint32_t v)
{
    v = v - ((v >> 1) & 0x55555555u);
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    v = (v + (v >> 4)) & 0x0f0f0f0fu;
    return static_cast<int>((v * 0x01010101u) >> 24);
}

} // namespace util
} // namespace pra
