#include "sim/serving/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"

namespace pra {
namespace sim {

namespace {

/** Domain tag so arrival draws never collide with workload seeds. */
constexpr uint64_t kArrivalSalt = 0xa441'7a1e'5eed'0001ull;

/** Arrivals an ArrivalCursor draws per refill beyond its look-ahead. */
constexpr size_t kArrivalBlock = 64;

/** The part of every draw's seed that depends only on the spec. */
uint64_t
seedPrefix(const ArrivalSpec &spec)
{
    return util::fnv1aMix(
        util::fnv1aMix(util::kFnv1aOffset, kArrivalSalt), spec.seed);
}

/**
 * The uniform behind Poisson draw @p index: a fresh generator per
 * index, seeded by a mix of (seed, index), so the draw depends on
 * nothing but its own counter. Clamped away from zero as
 * Xoshiro256::nextExponential clamps it.
 */
double
uniformAt(uint64_t prefix, int index)
{
    util::Xoshiro256 rng(
        util::fnv1aMix(prefix, static_cast<uint64_t>(index)));
    const double u = rng.nextDouble();
    return u > 0.0 ? u : 0x1.0p-53;
}

/**
 * Round a gap half away from zero and clamp it to one full cycle:
 * two requests never alias onto the same draw, and cycle time stays
 * integral. Below 2^62 the fraction gap - trunc(gap) is exact, so
 * comparing it with one half is std::llround without the call.
 */
uint64_t
roundGap(double gap)
{
    if (!(gap < 0x1p62))
        return std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(gap)));
    const int64_t whole = static_cast<int64_t>(gap);
    return static_cast<uint64_t>(std::max<int64_t>(
        1, whole + (gap - static_cast<double>(whole) >= 0.5 ? 1 : 0)));
}

/** arrivalGap() past its argument checks, with the prefix hoisted. */
uint64_t
gapAt(const ArrivalSpec &spec, uint64_t prefix, int index)
{
    if (spec.kind == ArrivalKind::Uniform)
        return roundGap(spec.meanGapCycles);
    return roundGap(spec.meanGapCycles *
                    -std::log(uniformAt(prefix, index)));
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Uniform: return "uniform";
      case ArrivalKind::Poisson: return "poisson";
    }
    util::fatal("arrivalKindName: bad kind");
}

ArrivalKind
parseArrivalKind(const std::string &text)
{
    if (text == "uniform")
        return ArrivalKind::Uniform;
    if (text == "poisson")
        return ArrivalKind::Poisson;
    util::fatal("--arrival must be uniform or poisson (got '" + text +
                "')");
}

uint64_t
arrivalGap(const ArrivalSpec &spec, int index)
{
    PRA_CHECK(spec.meanGapCycles >= 1.0,
              "arrivalGap: mean gap must be at least one cycle");
    PRA_CHECK(index >= 0, "arrivalGap: negative request index");
    return gapAt(spec, seedPrefix(spec), index);
}

ArrivalCursor::ArrivalCursor(const ArrivalSpec &spec, int count,
                             int lookahead)
    : spec_(spec), prefix_(seedPrefix(spec)), count_(count),
      lookahead_(static_cast<size_t>(lookahead))
{
    PRA_CHECK(spec.meanGapCycles >= 1.0,
              "ArrivalCursor: mean gap must be at least one cycle");
    PRA_CHECK(count >= 1, "ArrivalCursor: need at least one request");
    PRA_CHECK(lookahead >= 1, "ArrivalCursor: lookahead must be >= 1");
    // A refill draws at most the look-ahead plus one block, and never
    // more than the whole trace.
    const size_t most =
        std::min(lookahead_, static_cast<size_t>(count)) + kArrivalBlock;
    buf_.reserve(most);
    gaps_.resize(most);
    refill();
}

void
ArrivalCursor::refill()
{
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
    const int n = static_cast<int>(
        std::min(lookahead_ + kArrivalBlock - buf_.size(),
                 static_cast<size_t>(count_ - drawn_)));
    // A block at a time, in three flat phases, so the independent
    // draws of each phase overlap instead of queueing behind one
    // another's logarithm. Each value equals gapAt()'s.
    double *gaps = gaps_.data();
    if (spec_.kind == ArrivalKind::Poisson) {
        for (int i = 0; i < n; i++)
            gaps[i] = uniformAt(prefix_, drawn_ + i);
        for (int i = 0; i < n; i++)
            gaps[i] = spec_.meanGapCycles * -std::log(gaps[i]);
    } else {
        std::fill_n(gaps, n, spec_.meanGapCycles);
    }
    for (int i = 0; i < n; i++) {
        last_ += roundGap(gaps[i]);
        buf_.push_back(last_);
    }
    drawn_ += n;
}

} // namespace sim
} // namespace pra
