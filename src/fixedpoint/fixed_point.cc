#include "fixedpoint/fixed_point.h"

#include <bit>

#include "util/bits.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace fixedpoint {

int
essentialBits(uint16_t value)
{
    return util::popcount16(value);
}

int
msbPosition(uint16_t value)
{
    if (value == 0)
        return -1;
    return 15 - std::countl_zero(value);
}

int
lsbPosition(uint16_t value)
{
    if (value == 0)
        return -1;
    return std::countr_zero(value);
}

int
significantBits(uint16_t value)
{
    return msbPosition(value) + 1;
}

int
dynamicPrecision(uint16_t mask, bool leading_bit_only)
{
    if (mask == 0)
        return 0;
    if (leading_bit_only)
        return msbPosition(mask) + 1;
    return msbPosition(mask) - lsbPosition(mask) + 1;
}

double
essentialBitFractionNonZero(std::span<const uint16_t> values, int width)
{
    PRA_CHECK(width > 0 && width <= 16,
                         "essentialBitFractionNonZero: bad width");
    uint64_t set_bits = 0;
    uint64_t non_zero = 0;
    for (uint16_t v : values) {
        if (v == 0)
            continue;
        non_zero++;
        set_bits += static_cast<uint64_t>(essentialBits(v));
    }
    if (non_zero == 0)
        return 0.0;
    return static_cast<double>(set_bits) /
           (static_cast<double>(non_zero) * width);
}

double
zeroFraction(std::span<const uint16_t> values)
{
    if (values.empty())
        return 0.0;
    uint64_t zeros = 0;
    for (uint16_t v : values)
        if (v == 0)
            zeros++;
    return static_cast<double>(zeros) /
           static_cast<double>(values.size());
}

} // namespace fixedpoint
} // namespace pra
