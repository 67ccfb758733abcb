/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be reproducible across platforms and standard
 * library implementations, so we ship our own xoshiro256** generator
 * and our own distributions instead of relying on <random> engines
 * whose distribution implementations are not portable.
 */

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/check.h"

namespace pra {
namespace util {

/** FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/** Mix one value into an FNV-1a 64-bit hash state. */
inline constexpr uint64_t
fnv1aMix(uint64_t h, uint64_t value)
{
    h ^= value;
    h *= 0x100000001b3ull;
    return h;
}

/**
 * FNV-1a 64-bit hash of a byte string, for deterministic seed
 * derivation and cache fingerprints (not cryptographic).
 */
inline constexpr uint64_t
fnv1a(std::string_view text, uint64_t h = kFnv1aOffset)
{
    for (char ch : text)
        h = fnv1aMix(h, static_cast<uint8_t>(ch));
    return h;
}

/**
 * xoshiro256** 1.0 by Blackman & Vigna — a small, fast, high-quality
 * 64-bit PRNG with a 256-bit state. Seeded deterministically via
 * splitmix64 so that any 64-bit seed produces a well-mixed state.
 */
class Xoshiro256
{
  public:
    /** Construct with a full 64-bit seed (expanded via splitmix64). */
    explicit Xoshiro256(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        uint64_t sm = seed;
        for (auto &word : s_)
            word = splitmix64(sm);
        // A state of all zeros is the one forbidden state; splitmix64
        // cannot produce four zero outputs in a row, but guard anyway.
        if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
            s_[0] = 1;
    }

    /**
     * Next raw 64-bit output. Defined here, like nextDouble() and
     * nextBool(), so synthesis loops inline the generator step.
     */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits -> [0, 1) with full double precision.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform integer in [0, bound) using Lemire's method. bound > 0.
     * Inline, like nextInRange(), so per-weight synthesis loops pay
     * no call; a constant bound also folds the check away.
     */
    uint64_t
    nextBounded(uint64_t bound)
    {
        PRA_CHECK(bound > 0, "nextBounded: bound must be positive");
        // Lemire's nearly-divisionless method with rejection.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t l = static_cast<uint64_t>(m);
        if (l < bound) {
            uint64_t t = (0 - bound) % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t
    nextInRange(int64_t lo, int64_t hi)
    {
        PRA_CHECK(lo <= hi, "nextInRange: lo must be <= hi");
        uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        return lo + static_cast<int64_t>(nextBounded(span));
    }

    /**
     * Bernoulli draw: true with probability @p p. Loops that draw
     * with one p many times use Bernoulli, which returns the same
     * bits.
     */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Standard normal draw (Box-Muller, deterministic). */
    double nextGaussian();

    /**
     * Exponential draw with rate @p lambda (mean 1/lambda).
     * Requires lambda > 0.
     */
    double
    nextExponential(double lambda)
    {
        PRA_CHECK(lambda > 0.0, "nextExponential: lambda must be > 0");
        double u = nextDouble();
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -std::log(u) / lambda;
    }

  private:
    /** splitmix64: used only for seeding. */
    static uint64_t
    splitmix64(uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ull;
        uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t s_[4];
    /** Cached second Box-Muller variate, NaN when absent. */
    double gaussSpare_ = 0.0;
    bool hasSpare_ = false;
};

/**
 * A Bernoulli(p) draw as an integer threshold on the 53 bits that
 * nextDouble() uses: (next() >> 11) * 2^-53 < p holds exactly when
 * (next() >> 11) < ceil(p * 2^53), since both scalings by 2^53 are
 * exact. So a draw consumes the one next() of rng.nextBool(p) and
 * returns the same bit, without the int-to-double conversion. Build
 * it once per loop, not per draw.
 */
class Bernoulli
{
  public:
    explicit Bernoulli(double p) : threshold_(thresholdOf(p)) {}

    bool operator()(Xoshiro256 &rng) const
    {
        return (rng.next() >> 11) < threshold_;
    }

  private:
    /** p <= 0 and NaN never draw true; p >= 1 always does. */
    static uint64_t
    thresholdOf(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
    }

    uint64_t threshold_;
};

} // namespace util
} // namespace pra

