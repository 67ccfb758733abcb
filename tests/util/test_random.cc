/**
 * @file
 * Tests for the deterministic PRNG and its distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/random.h"

namespace pra {
namespace util {
namespace {

TEST(Xoshiro256, SameSeedSameStream)
{
    Xoshiro256 a(42);
    Xoshiro256 b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, DifferentSeedsDiverge)
{
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LE(same, 1);
}

TEST(Xoshiro256, ZeroSeedIsValid)
{
    Xoshiro256 rng(0);
    std::set<uint64_t> seen;
    for (int i = 0; i < 100; i++)
        seen.insert(rng.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Xoshiro256, DoublesInUnitInterval)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro256, DoublesRoughlyUniform)
{
    Xoshiro256 rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, BoundedStaysInBound)
{
    Xoshiro256 rng(3);
    for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 1000; i++)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Xoshiro256, BoundedCoversRange)
{
    Xoshiro256 rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; i++)
        seen.insert(rng.nextBounded(10));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro256, RangeInclusive)
{
    Xoshiro256 rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; i++) {
        int64_t v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, BernoulliProbability)
{
    Xoshiro256 rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        if (rng.nextBool(0.3))
            hits++;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Bernoulli, DrawsWhatNextBoolDraws)
{
    // The integer threshold must return nextBool's bit from the same
    // one next() at every edge: p <= 0 and NaN never, p >= 1 always,
    // the smallest and largest p in between, an exact half, and
    // random p.
    std::vector<double> probabilities = {
        0.0,  -0.25, std::ldexp(1.0, -60), 0.5, std::nextafter(1.0, 0.0),
        1.0,  1.5,   std::nan(""),         std::ldexp(1.0, -53),
        0.3};
    Xoshiro256 pick(17);
    for (int i = 0; i < 32; i++)
        probabilities.push_back(pick.nextDouble());
    for (double p : probabilities) {
        Xoshiro256 a(23);
        Xoshiro256 b(23);
        const Bernoulli draw(p);
        for (int i = 0; i < 20000; i++)
            ASSERT_EQ(draw(a), b.nextBool(p)) << "p=" << p << " i=" << i;
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

TEST(Xoshiro256, GaussianMoments)
{
    Xoshiro256 rng(13);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; i++) {
        double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Xoshiro256, ExponentialMean)
{
    Xoshiro256 rng(17);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; i++)
        sum += rng.nextExponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

} // namespace
} // namespace util
} // namespace pra
