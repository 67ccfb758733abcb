#include "util/random.h"

#include <cmath>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace util {

uint64_t
Xoshiro256::nextBounded(uint64_t bound)
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

int64_t
Xoshiro256::nextInRange(int64_t lo, int64_t hi)
{
    PRA_CHECK(lo <= hi, "nextInRange: lo must be <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(nextBounded(span));
}

double
Xoshiro256::nextGaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return gaussSpare_;
    }
    // Box-Muller: deterministic given the stream, portable.
    double u1 = nextDouble();
    double u2 = nextDouble();
    // Avoid log(0).
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gaussSpare_ = r * std::sin(theta);
    hasSpare_ = true;
    return r * std::cos(theta);
}

} // namespace util
} // namespace pra
