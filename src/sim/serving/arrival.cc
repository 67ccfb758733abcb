#include "sim/serving/arrival.h"

#include <algorithm>
#include <cmath>

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

/** arrivalGap() past its argument checks, with the prefix hoisted. */
uint64_t
gapAt(const ArrivalSpec &spec, uint64_t prefix, int index)
{
    double gap = spec.meanGapCycles;
    if (spec.kind == ArrivalKind::Poisson) {
        // A fresh generator per index, seeded by a mix of (seed,
        // index): the draw depends on nothing but its own counter.
        util::Xoshiro256 rng(
            util::fnv1aMix(prefix, static_cast<uint64_t>(index)));
        gap = spec.meanGapCycles * rng.nextExponential(1.0);
    }
    // Round half away from zero and clamp to one full cycle: two
    // requests never alias onto the same draw, and cycle time stays
    // integral. Below 2^62 the fraction gap - trunc(gap) is exact, so
    // comparing it with one half is std::llround without the call.
    if (!(gap < 0x1p62))
        return std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(gap)));
    const int64_t whole = static_cast<int64_t>(gap);
    return static_cast<uint64_t>(std::max<int64_t>(
        1, whole + (gap - static_cast<double>(whole) >= 0.5 ? 1 : 0)));
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
    : spec_(spec), count_(count),
      lookahead_(static_cast<size_t>(lookahead))
{
    PRA_CHECK(spec.meanGapCycles >= 1.0,
              "ArrivalCursor: mean gap must be at least one cycle");
    PRA_CHECK(count >= 1, "ArrivalCursor: need at least one request");
    PRA_CHECK(lookahead >= 1, "ArrivalCursor: lookahead must be >= 1");
    buf_.reserve(std::min(lookahead_, static_cast<size_t>(count)) +
                 kArrivalBlock);
    refill();
}

void
ArrivalCursor::refill()
{
    // A block at a time keeps the independent draws in a tight loop.
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
    const uint64_t prefix = seedPrefix(spec_);
    while (buf_.size() < lookahead_ + kArrivalBlock && drawn_ < count_) {
        last_ += gapAt(spec_, prefix, drawn_++);
        buf_.push_back(last_);
    }
}

} // namespace sim
} // namespace pra
