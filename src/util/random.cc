#include "util/random.h"

#include <cmath>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace util {

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
