/**
 * @file
 * Histograms for the simulators' latency statistics: a plain value
 * type with log-spaced buckets.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pra {
namespace util {

/**
 * Histogram over non-negative integer samples, with HDR-style
 * log-spaced buckets (logSpaced()): exact unit buckets up to
 * 2 * 2^subBits, then 2^subBits geometrically growing buckets per
 * power of two, so a maxValue of 2^40 cycles costs a few KB instead
 * of the 8 TB one bucket per value would. Every bucket's relative
 * width is below 2^-subBits, which bounds the percentile error the
 * coarsening introduces.
 *
 * Samples above maxValue land in a saturating overflow bucket and
 * report as maxValue + 1 from percentile() — a loud sentinel rather
 * than a silently wrong in-range value.
 */
class Histogram
{
  public:
    /**
     * A log-spaced histogram covering [0, max_value] with
     * 2^sub_bits buckets per power of two (sub_bits in [0, 8]);
     * values up to 2 * 2^sub_bits get exact unit buckets.
     */
    static Histogram logSpaced(uint64_t max_value, int sub_bits = 5);

    void
    add(uint64_t sample, uint64_t weight = 1)
    {
        if (sample <= maxValue_)
            buckets_[indexFor(sample)] += weight;
        else
            overflow_ += weight;
        count_ += weight;
        sum_ += static_cast<double>(sample) * weight;
    }

    uint64_t count() const { return count_; }
    uint64_t bucket(uint32_t index) const;
    uint32_t numBuckets() const
    {
        return static_cast<uint32_t>(buckets_.size());
    }
    uint64_t overflow() const { return overflow_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Largest sample with a dedicated bucket. */
    uint64_t maxValue() const { return maxValue_; }

    /** Smallest sample value bucket @p index covers. */
    uint64_t bucketLow(uint32_t index) const;
    /** Largest sample value bucket @p index covers (inclusive). */
    uint64_t bucketHigh(uint32_t index) const;

    /**
     * Upper bound of the smallest bucket b such that at least
     * @p fraction of the recorded weight lies in buckets <= b,
     * clamped to maxValue. Exact below 2 * 2^subBits (bucket ==
     * value); above, a conservative (never understated) value within
     * 2^-subBits relative error. Overflowed samples saturate to
     * maxValue + 1.
     */
    uint64_t percentile(double fraction) const;

    void reset();

  private:
    Histogram(uint64_t max_value, int sub_bits);

    /** Bucket index of @p sample (which must be <= maxValue_). */
    size_t
    indexFor(uint64_t sample) const
    {
        // HDR layout: exact unit buckets below 2 * S (S = 2^subBits);
        // above that, the top subBits+1 significant bits select the
        // bucket — 2^subBits buckets per power of two, relative width
        // 2^-subBits.
        const uint64_t unit = uint64_t{2} << subBits_;
        if (sample < unit)
            return static_cast<size_t>(sample);
        const int shift = std::bit_width(sample) - 1 - subBits_;
        return static_cast<size_t>(
            (static_cast<uint64_t>(shift) << subBits_) +
            (sample >> shift));
    }

    std::vector<uint64_t> buckets_;
    uint64_t maxValue_ = 0;
    int subBits_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace util
} // namespace pra

