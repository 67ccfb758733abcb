/**
 * @file
 * 16-bit fixed-point value utilities.
 *
 * DaDianNao (the baseline) and Pragmatic both store neurons as 16-bit
 * fixed-point numbers. After the ReLU nonlinearity neuron values are
 * non-negative, so the simulator treats a neuron as a 16-bit unsigned
 * magnitude bit pattern; synapses are signed 16-bit values. Timing
 * depends only on the neuron bit patterns, never on the synapses.
 *
 * The *essential bits* of a neuron (paper Section II) are its set bits:
 * each one generates a non-zero term in a shift-and-add multiplier
 * (modelled by the test oracle in tests/fixedpoint/fixed_point_oracle.h).
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pra {
namespace fixedpoint {

/** A 16-bit unsigned neuron bit pattern. */
using Neuron16 = uint16_t;

/** A 16-bit signed synapse (weight). */
using Synapse16 = int16_t;

/** Number of storage bits in the baseline representation. */
inline constexpr int kNeuronBits = 16;

/** Count of essential (set) bits in a neuron pattern. */
int essentialBits(uint16_t value);

/** Position of the most significant set bit; -1 for value == 0. */
int msbPosition(uint16_t value);

/** Position of the least significant set bit; -1 for value == 0. */
int lsbPosition(uint16_t value);

/**
 * Minimum number of bits needed to represent @p value, i.e.
 * msbPosition + 1; 0 for value == 0.
 */
int significantBits(uint16_t value);

/**
 * The bit-serial precision a runtime detector (Dynamic-Stripes)
 * derives from the OR @p mask of a value group: the span between the
 * group's leading and trailing set bits, or — when only the leading
 * bit is detected (@p leading_bit_only) — everything below the
 * leading bit as well. 0 for an all-zero group (nothing to stream).
 */
int dynamicPrecision(uint16_t mask, bool leading_bit_only);

/**
 * Average fraction of set bits per non-zero value over @p values,
 * measured against a @p width-bit representation (paper Table I,
 * "NZ"). Returns 0 when there are no non-zero values.
 */
double essentialBitFractionNonZero(std::span<const uint16_t> values,
                                   int width);

/** Fraction of zero values in @p values (0 when empty). */
double zeroFraction(std::span<const uint16_t> values);

} // namespace fixedpoint
} // namespace pra

