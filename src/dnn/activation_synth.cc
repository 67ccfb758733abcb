#include "dnn/activation_synth.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "fixedpoint/fixed_point.h"
#include "fixedpoint/precision.h"
#include "fixedpoint/quantization.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

namespace {

/**
 * Expected popcount of the dense mixture component for a p-bit core:
 * MSB fixed at bit p-1, lower p-1 bits uniform.
 */
double
densePopcount(int precision_bits)
{
    return 1.0 + (precision_bits - 1) * 0.5;
}

void
checkShape(double lambda, uint32_t max_value)
{
    PRA_CHECK(max_value >= 1,
              "DiscreteExponential: max_value must be >= 1");
    PRA_CHECK(lambda >= 0.0, "DiscreteExponential: lambda must be >= 0");
}

/**
 * Unnormalized P(v) of DiscreteExponential. Anchoring the exponent at
 * v == 1 keeps the weights finite for any lambda (a pure
 * renormalization: same distribution).
 */
double
exponentialWeight(double lambda, uint32_t v, uint32_t max_value)
{
    return std::exp(-lambda * static_cast<double>(v - 1) / max_value);
}

/**
 * Image input (LayerSpec::readsImage): dense (nearly no zeros), with
 * pixel values spread uniformly across the precision window. This is
 * why Cnvlutin cannot skip layer 1 (Section II-B), and it shapes
 * conv1 timing.
 */
void
useImageStatistics(SynthParams &params)
{
    params.zeroFraction = kImageZeroFraction;
    params.lambda = 0.0; // Uniform pixel magnitudes.
    params.denseFraction = 0.0;
    params.noiseDense = 0.0;
    params.noiseLight = 0.0;
}

} // namespace

DiscreteExponential::DiscreteExponential(double lambda, uint32_t max_value)
    : lambda_(lambda), maxValue_(max_value)
{
    checkShape(lambda, max_value);
    cdf_.resize(max_value);
    double total = 0.0;
    double pop_sum = 0.0;
    double val_sum = 0.0;
    for (uint32_t v = 1; v <= max_value; v++) {
        double w = exponentialWeight(lambda, v, max_value);
        total += w;
        pop_sum += w * util::popcount32(v);
        val_sum += w * v;
        cdf_[v - 1] = total;
    }
    // x / x == 1 exactly, so cdf_.back() == 1.0 > any u in [0, 1).
    for (double &c : cdf_)
        c /= total;
    expectedPopcount_ = pop_sum / total;
    expectedValue_ = val_sum / total;

    const uint32_t buckets = std::bit_ceil(max_value);
    guideScale_ = static_cast<double>(buckets);
    guide_.resize(buckets);
    uint32_t i = 0;
    for (uint32_t j = 0; j < buckets; j++) {
        const double edge = static_cast<double>(j) / guideScale_;
        while (i + 1 < max_value && cdf_[i] < edge)
            i++;
        guide_[j] = i;
    }
}

double
expectedPopcount(double lambda, uint32_t max_value)
{
    checkShape(lambda, max_value);
    double total = 0.0;
    double pop_sum = 0.0;
    for (uint32_t v = 1; v <= max_value; v++) {
        double w = exponentialWeight(lambda, v, max_value);
        total += w;
        pop_sum += w * util::popcount32(v);
    }
    return pop_sum / total;
}

double
calibrateLambda(uint32_t max_value, double target_popcount)
{
    // Reachable range: lambda -> inf concentrates on value 1
    // (popcount 1); lambda == 0 is uniform.
    double uniform_pop = expectedPopcount(0.0, max_value);
    if (target_popcount >= uniform_pop) {
        if (target_popcount > uniform_pop + 0.05) {
            util::warn("calibrateLambda: target popcount " +
                       std::to_string(target_popcount) +
                       " unreachable (max " +
                       std::to_string(uniform_pop) + "); clamping");
        }
        return 0.0;
    }
    if (target_popcount <= 1.0)
        return 1e6; // Concentrate on value 1.

    // Expected popcount is monotone in lambda to within quantization
    // wiggles; bracket on a log grid, then bisect.
    double lo = 0.0;           // popcount == uniform_pop (high)
    double hi = 1e6;           // popcount ~= 1 (low)
    for (int iter = 0; iter < 60; iter++) {
        double mid = (lo <= 0.0) ? std::min(1.0, hi / 2)
                                 : std::sqrt(lo * hi);
        double pop = expectedPopcount(mid, max_value);
        if (pop > target_popcount)
            lo = mid;
        else
            hi = mid;
        if (hi / std::max(lo, 1e-12) < 1.0001)
            break;
    }
    return std::sqrt(std::max(lo, 1e-12) * hi);
}

SynthParams
calibrateFixed16(const LayerSpec &layer, const BitStatsTargets &targets)
{
    SynthParams params;
    params.zeroFraction = targets.zeroFraction16();
    params.precisionBits = layer.profiledPrecision;
    params.anchorLsb = synthesisAnchor(layer);

    double raw_target = targets.nz16 * fixedpoint::kNeuronBits;
    // Split the raw essential-bit budget: a softwareBenefit fraction
    // lives in the suffix-noise bits the trimming removes (Table V),
    // the rest in the core window. Each of the kNoiseSuffixBits noise
    // positions of every non-zero neuron is set independently with
    // per-bit noise probabilities, so trimming shortens the busy lanes —
    // matching how reduced-precision profiling removes low-order bits
    // across the board.
    double noise_budget =
        params.anchorLsb > 0
            ? std::min(raw_target * targets.softwareBenefit,
                       static_cast<double>(params.anchorLsb))
            : 0.0;
    double core_target = raw_target - noise_budget;

    uint32_t core_max = (1u << layer.profiledPrecision) - 1;
    params.lambda = calibrateLambda(core_max, kLightComponentPopcount);
    double light_pop = expectedPopcount(params.lambda, core_max);
    double dense_pop = densePopcount(layer.profiledPrecision);
    if (dense_pop > light_pop) {
        params.denseFraction = std::clamp(
            (core_target - light_pop) / (dense_pop - light_pop), 0.0,
            1.0);
    }
    // If the dense component alone cannot reach the target, push the
    // light component's rate down as a fallback.
    if (params.denseFraction >= 1.0 && core_target > dense_pop)
        params.lambda = calibrateLambda(core_max, core_target);

    // Noise goes to the dense lanes first (they dominate schedule
    // length, see SynthParams); overflow spills to the light lanes.
    if (params.anchorLsb > 0 && noise_budget > 0.0) {
        double dense_capacity =
            params.denseFraction * params.anchorLsb;
        if (dense_capacity >= noise_budget) {
            params.noiseDense =
                noise_budget / (params.denseFraction > 0.0
                                    ? params.denseFraction *
                                          params.anchorLsb
                                    : 1.0);
        } else {
            params.noiseDense = params.denseFraction > 0.0 ? 1.0 : 0.0;
            double spill = noise_budget - dense_capacity;
            double light_share = 1.0 - params.denseFraction;
            if (light_share > 0.0)
                params.noiseLight = std::clamp(
                    spill / (light_share * params.anchorLsb), 0.0,
                    1.0);
        }
    }
    return params;
}

SynthParams
calibrateQuant8(const BitStatsTargets &targets)
{
    SynthParams params;
    params.zeroFraction = targets.zeroFraction8();
    params.precisionBits = fixedpoint::kQuantBits;
    params.anchorLsb = 0;
    params.noiseDense = 0.0;
    params.noiseLight = 0.0;
    double target = targets.nz8 * fixedpoint::kQuantBits;
    params.lambda = calibrateLambda(255, kLightComponentPopcount);
    double light_pop = expectedPopcount(params.lambda, 255);
    double dense_pop = densePopcount(fixedpoint::kQuantBits);
    if (dense_pop > light_pop) {
        params.denseFraction = std::clamp(
            (target - light_pop) / (dense_pop - light_pop), 0.0, 1.0);
    }
    if (params.denseFraction >= 1.0 && target > dense_pop)
        params.lambda = calibrateLambda(255, target);
    return params;
}

ActivationSynthesizer::ActivationSynthesizer(const Network &network,
                                             uint64_t seed)
    : network_(network), seed_(seed)
{
    PRA_CHECK(network_.valid(),
                         "ActivationSynthesizer: invalid network");
    fixed16Params_.reserve(network_.layers.size());
    for (size_t i = 0; i < network_.layers.size(); i++) {
        const LayerSpec &layer = network_.layers[i];
        // Pool layers carry no priced stream (propagation computes
        // their tensors); skip the (expensive) calibration and keep a
        // placeholder so indices stay aligned.
        if (!layer.priced()) {
            fixed16Params_.push_back(SynthParams{});
            continue;
        }
        SynthParams params = calibrateFixed16(layer, network_.targets);
        if (layer.readsImage(static_cast<int>(i)))
            useImageStatistics(params);
        fixed16Params_.push_back(params);
    }
    quant8Params_ = calibrateQuant8(network_.targets);
}

NeuronTensor
ActivationSynthesizer::synthesizeRaw(int layer_idx, bool quantized,
                                     int image) const
{
    const auto &layer = network_.layers.at(layer_idx);
    PRA_CHECK(layer.priced(),
                         "synthesizeRaw: pool layers have no "
                         "synthetic stream (they are never priced)");
    PRA_CHECK(image >= 0,
                         "synthesizeRaw: batch image index must be "
                         "non-negative");
    SynthParams params =
        quantized ? quant8Params_ : fixed16Params_.at(layer_idx);
    if (quantized && layer.readsImage(layer_idx))
        useImageStatistics(params);

    // Seed by the layer's ordinal (its position among the priced
    // layers of the unfiltered network) rather than its index in
    // this selection, so the same logical layer synthesizes the same
    // stream under --layers=fc and --layers=all, and structural pool
    // layers never reshuffle priced streams. Hand-built layers
    // without an ordinal fall back to the index; for pool-free lists
    // (Conv selections, hand-built nets) ordinal == index, so
    // pre-selection streams are bit-identical — under All the pools
    // make index and ordinal diverge, which is exactly why seeding
    // must use the ordinal.
    uint64_t position = static_cast<uint64_t>(
        layer.ordinal >= 0 ? layer.ordinal : layer_idx);
    // Image 0's salt is zero, so single-image (batch-1) streams are
    // byte-identical to the historical ones.
    uint64_t layer_seed = seed_ ^ util::fnv1a(network_.name) ^
                          util::fnv1a(layer.name) ^
                          (quantized ? 0x9u : 0x1u) ^ (position << 32) ^
                          imageStreamSalt(image);
    util::Xoshiro256 rng(layer_seed);

    uint32_t core_max = (1u << params.precisionBits) - 1;
    DiscreteExponential core(params.lambda, core_max);
    uint32_t noise_max =
        params.anchorLsb > 0 ? (1u << params.anchorLsb) - 1 : 0;

    const util::Bernoulli zero(params.zeroFraction);
    const util::Bernoulli dense_draw(params.denseFraction);
    const util::Bernoulli noise_dense(params.noiseDense);
    const util::Bernoulli noise_light(params.noiseLight);

    const int p = params.precisionBits;
    NeuronTensor tensor(layer.inputX, layer.inputY, layer.inputChannels);
    for (auto &value : tensor.flat()) {
        if (zero(rng)) {
            value = 0;
            continue;
        }
        uint32_t core_value;
        bool dense = dense_draw(rng);
        if (dense) {
            // Dense (heavy-tail) component: MSB at the window top,
            // uniform lower bits.
            uint32_t low = p > 1 ? static_cast<uint32_t>(
                                       rng.nextBounded(1u << (p - 1)))
                                 : 0;
            core_value = (1u << (p - 1)) | low;
        } else {
            core_value = core.sample(rng);
        }
        uint32_t v = core_value << params.anchorLsb;
        if (noise_max > 0) {
            const util::Bernoulli &noise =
                dense ? noise_dense : noise_light;
            for (int b = 0; b < params.anchorLsb; b++)
                if (noise(rng))
                    v |= 1u << b;
        }
        value = static_cast<uint16_t>(v);
    }
    return tensor;
}

NeuronTensor
ActivationSynthesizer::synthesizeFixed16(int layer_idx, int image) const
{
    return synthesizeRaw(layer_idx, false, image);
}

NeuronTensor
ActivationSynthesizer::synthesizeFixed16Trimmed(int layer_idx,
                                                int image) const
{
    NeuronTensor tensor = synthesizeRaw(layer_idx, false, image);
    const auto &layer = network_.layers.at(layer_idx);
    uint16_t mask = layer
                        .precisionWindow(
                            fixed16Params_.at(layer_idx).anchorLsb)
                        .mask();
    for (auto &value : tensor.flat())
        value = static_cast<uint16_t>(value & mask);
    return tensor;
}

NeuronTensor
ActivationSynthesizer::synthesizeQuant8(int layer_idx, int image) const
{
    return synthesizeRaw(layer_idx, true, image);
}

const SynthParams &
ActivationSynthesizer::fixed16Params(int layer_idx) const
{
    return fixed16Params_.at(layer_idx);
}

FilterWeightStream::FilterWeightStream(const LayerSpec &layer,
                                       uint64_t seed, int weight_range)
    : rng_(seed ^ util::fnv1a(layer.name)), range_(weight_range),
      span_(2 * static_cast<uint64_t>(weight_range) + 1),
      reject_((0 - span_) % span_)
{
    PRA_CHECK(weight_range > 0 && weight_range <= 32767,
              "synthesizeFilters: bad weight range");
}

std::vector<FilterTensor>
synthesizeFilters(const LayerSpec &layer, uint64_t seed,
                  int weight_range)
{
    FilterWeightStream weights(layer, seed, weight_range);
    std::vector<FilterTensor> filters;
    filters.reserve(layer.numFilters);
    for (int f = 0; f < layer.numFilters; f++) {
        FilterTensor filter(layer.filterX, layer.filterY,
                            layer.inputChannels);
        for (auto &w : filter.flat())
            w = weights.next();
        filters.push_back(std::move(filter));
    }
    return filters;
}

} // namespace dnn
} // namespace pra
