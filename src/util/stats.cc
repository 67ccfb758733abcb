#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace pra {
namespace util {

Histogram::Histogram(uint64_t max_value, int sub_bits)
    : maxValue_(max_value), subBits_(sub_bits)
{
    buckets_.assign(indexFor(max_value) + 1, 0);
}

Histogram
Histogram::logSpaced(uint64_t max_value, int sub_bits)
{
    PRA_CHECK(sub_bits >= 0 && sub_bits <= 8,
              "Histogram::logSpaced: sub_bits must be in [0, 8]");
    PRA_CHECK(max_value >= 1,
              "Histogram::logSpaced: empty sample range");
    return Histogram(max_value, sub_bits);
}

uint64_t
Histogram::bucket(uint32_t index) const
{
    PRA_CHECK(index < buckets_.size(), "Histogram bucket out of range");
    return buckets_[index];
}

uint64_t
Histogram::bucketLow(uint32_t index) const
{
    PRA_CHECK(index < buckets_.size(), "Histogram bucket out of range");
    const uint64_t unit = uint64_t{2} << subBits_;
    if (index < unit)
        return index;
    // Invert indexFor: index = (shift << subBits) + (value >> shift)
    // with (value >> shift) in [S, 2S).
    const uint64_t shift = (index >> subBits_) - 1;
    const uint64_t mantissa =
        index - (shift << subBits_); // In [S, 2S).
    return mantissa << shift;
}

uint64_t
Histogram::bucketHigh(uint32_t index) const
{
    PRA_CHECK(index < buckets_.size(), "Histogram bucket out of range");
    const uint64_t unit = uint64_t{2} << subBits_;
    if (index < unit)
        return index;
    const uint64_t shift = (index >> subBits_) - 1;
    return bucketLow(index) + (uint64_t{1} << shift) - 1;
}

uint64_t
Histogram::percentile(double fraction) const
{
    PRA_CHECK(fraction >= 0.0 && fraction <= 1.0,
                   "percentile fraction must be in [0,1]");
    if (count_ == 0)
        return 0;
    uint64_t target = static_cast<uint64_t>(
        std::ceil(fraction * static_cast<double>(count_)));
    if (target == 0)
        target = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
        seen += buckets_[i];
        if (seen >= target)
            return std::min(bucketHigh(static_cast<uint32_t>(i)),
                            maxValue_);
    }
    return maxValue_ + 1; // All remaining weight is overflow.
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
    sum_ = 0.0;
}

} // namespace util
} // namespace pra
