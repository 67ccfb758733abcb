#include "dnn/weight_synth.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "dnn/activation_synth.h"
#include "dnn/propagate.h"
#include "util/check.h"
#include "util/random.h"

namespace pra {
namespace dnn {

namespace {

/**
 * The calibrated synthetic weight-code distribution for one profiled
 * weight precision, built once per process (thread-safe, lazy — so a
 * precision nobody prices never pays calibration or warns).
 */
const DiscreteExponential &
weightDistribution(int wp)
{
    PRA_CHECK(wp >= 1 && wp <= 16,
              "weightDistribution: precision out of range");
    static std::array<std::once_flag, 17> once;
    static std::array<std::optional<DiscreteExponential>, 17> cache;
    std::call_once(once[wp], [wp] {
        const uint32_t max_code = (1u << wp) - 1;
        cache[wp].emplace(
            calibrateLambda(max_code, kWeightPopcountTarget),
            max_code);
    });
    return *cache[wp];
}

} // namespace

void
synthesizeWeightCodes(const LayerSpec &layer, int filter,
                      std::span<uint16_t> out)
{
    PRA_CHECK(layer.priced(),
              "synthesizeWeightCodes: pool layers carry no weights");
    PRA_CHECK(filter >= 0 && filter < layer.numFilters,
              "synthesizeWeightCodes: filter out of range");
    PRA_CHECK(static_cast<int64_t>(out.size()) ==
                  layer.synapsesPerFilter(),
              "synthesizeWeightCodes: wrong code-buffer length");
    const DiscreteExponential &dist =
        weightDistribution(layer.profiledWeightPrecision);
    // Counter-seeded per (layer, precision, filter): any filter's
    // codes are reproducible without generating its predecessors.
    uint64_t h = util::fnv1a(layer.name, kWeightStreamSeed);
    h = util::fnv1aMix(
        h, static_cast<uint64_t>(layer.profiledWeightPrecision));
    h = util::fnv1aMix(h, static_cast<uint64_t>(filter));
    util::Xoshiro256 rng(h);
    const util::Bernoulli zero(kWeightZeroFraction);
    for (uint16_t &code : out) {
        if (zero(rng)) {
            code = 0;
            continue;
        }
        code = static_cast<uint16_t>(dist.sample(rng));
    }
}

PropagatedWeightCodes::PropagatedWeightCodes(const LayerSpec &layer,
                                             uint64_t synth_seed)
    : layer_(layer),
      weights_(layer, synth_seed ^ kPropagationFilterSalt)
{
    PRA_CHECK(layer_.priced(),
              "PropagatedWeightCodes: pool layers carry no weights");
    // Find the layer max magnitude — the anchor that maps |w| onto
    // the profiled weight window — by replaying the weight stream
    // until it reaches kReferenceWeightRange, which no draw can
    // exceed: a few hundred draws, not a whole layer. Only a tiny
    // layer that never draws the bound scans to its end.
    FilterWeightStream scan(layer_, synth_seed ^ kPropagationFilterSalt);
    const int64_t total =
        layer_.synapsesPerFilter() * layer_.numFilters;
    for (int64_t i = 0; i < total && maxMag_ < kReferenceWeightRange; i++)
        maxMag_ = std::max(maxMag_, std::abs(int{scan.next()}));
    const uint32_t max_code =
        (1u << layer_.profiledWeightPrecision) - 1;
    const double scale =
        maxMag_ > 0 ? static_cast<double>(max_code) / maxMag_ : 0.0;
    for (int a = 0; a <= maxMag_; a++)
        codeOf_[static_cast<size_t>(a)] =
            static_cast<uint16_t>(std::llround(a * scale));
}

void
PropagatedWeightCodes::filterCodes(int filter, std::span<uint16_t> out)
{
    PRA_CHECK(filter == nextFilter_,
              "PropagatedWeightCodes: filters must stream in order");
    PRA_CHECK(static_cast<int64_t>(out.size()) ==
                  layer_.synapsesPerFilter(),
              "PropagatedWeightCodes: wrong code-buffer length");
    nextFilter_++;
    for (uint16_t &code : out) {
        const int magnitude = std::abs(int{weights_.next()});
        code = codeOf_[static_cast<size_t>(magnitude)];
    }
}

} // namespace dnn
} // namespace pra
