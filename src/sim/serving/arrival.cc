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

ArrivalTrace::ArrivalTrace(const ArrivalSpec &spec, int count)
    : spec_(spec), prefix_(seedPrefix(spec)), count_(count)
{
    PRA_CHECK(spec.meanGapCycles >= 1.0,
              "ArrivalTrace: mean gap must be at least one cycle");
    PRA_CHECK(count >= 1, "ArrivalTrace: need at least one request");
    blocks_.resize(static_cast<size_t>((count - 1) / kBlock) + 1);
}

std::vector<uint64_t>
ArrivalTrace::drawNext() const
{
    const int n = std::min(kBlock, count_ - drawn_);
    // Three flat phases, so the independent draws of each phase
    // overlap instead of queueing behind one another's logarithm.
    // Each value equals gapAt()'s.
    std::vector<double> gaps(static_cast<size_t>(n), spec_.meanGapCycles);
    if (spec_.kind == ArrivalKind::Poisson) {
        for (int i = 0; i < n; i++)
            gaps[static_cast<size_t>(i)] = uniformAt(prefix_, drawn_ + i);
        for (double &gap : gaps)
            gap = spec_.meanGapCycles * -std::log(gap);
    }
    std::vector<uint64_t> block(static_cast<size_t>(n));
    uint64_t last = last_;
    for (size_t i = 0; i < block.size(); i++)
        block[i] = last += roundGap(gaps[i]);
    return block;
}

void
ArrivalTrace::append(std::vector<uint64_t> block)
{
    PRA_CHECK(!complete() &&
                  block.size() == static_cast<size_t>(
                                      std::min(kBlock, count_ - drawn_)),
              "ArrivalTrace: append takes the block drawNext drew");
    drawn_ += static_cast<int>(block.size());
    last_ = block.back();
    blocks_[static_cast<size_t>((drawn_ - 1) >> kBlockBits)] =
        std::move(block);
}

void
ArrivalTrace::release(int low)
{
    PRA_CHECK(low >= 0 && low <= drawn_,
              "ArrivalTrace: release past the drawn frontier");
    for (const size_t end = static_cast<size_t>(low >> kBlockBits);
         released_ < end; released_++)
        std::vector<uint64_t>().swap(blocks_[released_]);
}

} // namespace sim
} // namespace pra
