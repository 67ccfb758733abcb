/**
 * @file
 * Synthetic neuron-stream generation, calibrated to the paper.
 *
 * The paper measures its networks on real ImageNet activations; those
 * traces are not available offline, but every quantity the paper
 * reports is a function of the layer geometry (exact, from the model
 * zoo) and of the *bit statistics* of the neuron stream. This module
 * synthesizes neuron values whose bit statistics match the paper's own
 * published measurements:
 *
 *  - the zero-neuron fraction and the essential-bit content of
 *    non-zero neurons match Table I per network and representation;
 *  - the essential-bit content removed by per-layer precision
 *    trimming matches the software-guidance benefit of Table V.
 *
 * Mechanics for the 16-bit fixed-point stream: a neuron is zero with
 * the ReLU zero probability; otherwise its *core* value (a discretized
 * exponential — the shape of quantized rectified activations) occupies
 * the layer's profiled precision window, and with some probability a
 * few low-order *suffix noise* bits are set below the window. Software
 * trimming (Section V-F) masks exactly those noise bits. The 8-bit
 * quantized stream draws codes from a separately calibrated
 * discretized exponential.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"
#include "util/random.h"

namespace pra {
namespace dnn {

/**
 * Maximum number of suffix-noise bit positions below the precision
 * window (clamped per layer so the window fits in 16 bits). The
 * window of a layer with precision p keeps bits
 * [anchor, anchor + p - 1] with anchor = min(kNoiseSuffixBits, 16-p).
 */
inline constexpr int kNoiseSuffixBits = 4;

/**
 * The synthesis anchor of @p layer's precision window — the single
 * definition every consumer (calibration, trimming, term counting,
 * propagation/requantization) must share: if the copies diverged,
 * trimmed streams would silently stop matching the calibrated
 * window.
 */
inline int
synthesisAnchor(const LayerSpec &layer)
{
    return kNoiseSuffixBits < 16 - layer.profiledPrecision
               ? kNoiseSuffixBits
               : 16 - layer.profiledPrecision;
}

/**
 * A discrete distribution over [1, maxValue] with P(v) proportional to
 * exp(-lambda * v / maxValue); lambda == 0 degenerates to uniform.
 * Scale-normalizing the exponent keeps lambda comparable across
 * layers with different precisions.
 *
 * Sampling inverts the CDF in O(1) expected time through a guide
 * table of K = bit_ceil(maxValue) buckets: entry j holds the first
 * CDF index whose value is >= j / K. A draw u lands in bucket
 * floor(u * K) — exact, since K is a power of two — so j / K <= u and
 * the answer cannot precede guide[j]; scanning forward while
 * cdf[i] < u then stops at exactly the index std::lower_bound over
 * the whole CDF returns. Every stream is therefore bit-identical to
 * a binary-search inversion; a bucket holds about one CDF point on
 * average, since K >= maxValue.
 */
class DiscreteExponential
{
  public:
    DiscreteExponential(double lambda, uint32_t max_value);

    /** Draw one value in [1, maxValue]. */
    uint32_t
    sample(util::Xoshiro256 &rng) const
    {
        return fromUniform(rng.nextDouble());
    }

    /**
     * The value a uniform draw @p u in [0, 1) maps to: one plus the
     * first CDF index whose value is >= @p u (the last index if none
     * is), found through the guide table.
     */
    uint32_t
    fromUniform(double u) const
    {
        size_t i = guide_[static_cast<size_t>(u * guideScale_)];
        const size_t last = cdf_.size() - 1;
        while (i < last && cdf_[i] < u)
            i++;
        return static_cast<uint32_t>(i + 1);
    }

    /** Exact expected popcount under the distribution. */
    double expectedPopcount() const { return expectedPopcount_; }

    /** Exact expected value under the distribution. */
    double expectedValue() const { return expectedValue_; }

    uint32_t maxValue() const { return maxValue_; }
    double lambda() const { return lambda_; }

    /** The normalized CDF: entry v - 1 is P(value <= v). */
    std::span<const double> cdf() const { return cdf_; }

  private:
    double lambda_;
    uint32_t maxValue_;
    std::vector<double> cdf_;
    /** Entry j: first CDF index whose value is >= j / guideScale_. */
    std::vector<uint32_t> guide_;
    double guideScale_ = 0.0; ///< K = bit_ceil(maxValue), exact.
    double expectedPopcount_ = 0.0;
    double expectedValue_ = 0.0;
};

/**
 * DiscreteExponential(lambda, max_value).expectedPopcount() without
 * building the CDF or the guide table: the same weights, summed in
 * the same order, so the result is bit-equal. Calibration loops call
 * this, since they never sample.
 */
double expectedPopcount(double lambda, uint32_t max_value);

/**
 * Find the lambda for which DiscreteExponential(lambda, max_value) has
 * expected popcount @p target_popcount. Targets outside the reachable
 * range [1, E(uniform)] are clamped (with a warning).
 */
double calibrateLambda(uint32_t max_value, double target_popcount);

/**
 * Calibrated per-layer synthesis parameters.
 *
 * Non-zero core values are a two-component mixture mirroring the
 * heavy-tailed shape of real rectified activations: a *light*
 * discretized-exponential component (small values, 1-2 essential
 * bits) and a *dense* component whose MSB sits at the top of the
 * precision window with uniformly random lower bits (~1 + (p-1)/2
 * essential bits). The mixture weight is calibrated so the marginal
 * essential-bit content matches Table I; the tail is what gives
 * bricks realistic worst-lane (synchronization-relevant) statistics.
 */
struct SynthParams
{
    double zeroFraction = 0.5;   ///< P(neuron == 0).
    double lambda = 1.0;         ///< Light-component rate.
    double denseFraction = 0.0;  ///< P(dense component | non-zero).
    int precisionBits = 8;       ///< p: width of the core window.
    int anchorLsb = 0;           ///< Window lsb (suffix bits below).
    /**
     * Per-bit probability of a suffix-noise bit on dense-component
     * neurons. Large activations carry the bulk of the
     * sub-precision noise the profiling discards, which is what
     * makes trimming shorten the critical (max) lanes.
     */
    double noiseDense = 0.0;
    /** Per-bit suffix-noise probability on light-component neurons. */
    double noiseLight = 0.0;
};

/**
 * Target essential-bit count of the light mixture component; a global
 * shape constant (the dense fraction absorbs per-network calibration).
 */
inline constexpr double kLightComponentPopcount = 1.3;

/**
 * Zero fraction of the first layer's input (the image): images are
 * dense — only a sliver of pixels is exactly zero. The override
 * applies only when the network's first layer is convolutional; a
 * front-trimmed FC-only network starts from pooled ReLU outputs, not
 * the image.
 */
inline constexpr double kImageZeroFraction = 0.02;

/**
 * Calibrate the 16-bit fixed-point stream of one layer against the
 * network's Table I / Table V targets.
 */
SynthParams calibrateFixed16(const LayerSpec &layer,
                             const BitStatsTargets &targets);

/** Calibrate the 8-bit quantized code stream (network-wide). */
SynthParams calibrateQuant8(const BitStatsTargets &targets);

/**
 * Per-image stream-seed salt for batched workloads. Image 0 is the
 * historical single-image stream (salt 0, so every committed golden
 * is byte-identical); images 1.. derive well-mixed distinct salts, so
 * a batch of B images prices B genuinely different activation
 * streams of the same calibrated distribution.
 */
inline constexpr uint64_t
imageStreamSalt(int image)
{
    if (image == 0)
        return 0;
    return util::fnv1aMix(
        util::fnv1aMix(util::kFnv1aOffset, 0xba7c'0f00'd5'ee'd0'01ull),
        static_cast<uint64_t>(image));
}

/**
 * Deterministic activation generator for a network. Layer tensors are
 * reproducible: the stream for (network, layer, representation,
 * batch image) only depends on the seed.
 */
class ActivationSynthesizer
{
  public:
    explicit ActivationSynthesizer(const Network &network,
                                   uint64_t seed = 0x5eed);

    const Network &network() const { return network_; }

    /** The workload seed streams derive from (cache-key component). */
    uint64_t seed() const { return seed_; }

    /**
     * Synthesize the raw 16-bit fixed-point input stream of layer
     * @p layer_idx (untrimmed: suffix noise present). @p image
     * selects the batch image (imageStreamSalt): image 0 is the
     * historical stream, every other index an independent draw from
     * the same calibrated distribution.
     */
    NeuronTensor synthesizeFixed16(int layer_idx, int image = 0) const;

    /**
     * Same stream after software trimming: each neuron ANDed with the
     * layer's precision mask. Pairs element-for-element with
     * synthesizeFixed16() so trimmed/untrimmed comparisons (Table V)
     * see the same underlying neurons.
     */
    NeuronTensor synthesizeFixed16Trimmed(int layer_idx,
                                          int image = 0) const;

    /** Synthesize the 8-bit quantized code stream (codes in 0..255). */
    NeuronTensor synthesizeQuant8(int layer_idx, int image = 0) const;

    const SynthParams &fixed16Params(int layer_idx) const;
    const SynthParams &quant8Params() const { return quant8Params_; }

  private:
    const Network network_;
    uint64_t seed_;
    std::vector<SynthParams> fixed16Params_;
    SynthParams quant8Params_;

    NeuronTensor synthesizeRaw(int layer_idx, bool quantized,
                               int image) const;
};

/**
 * synthesizeFilters()' default weight range, and the range of the
 * propagated reference filters: no reference weight exceeds it in
 * magnitude.
 */
inline constexpr int kReferenceWeightRange = 255;

/**
 * The weight stream synthesizeFilters() draws, one weight at a time:
 * filter 0's weights in FilterTensor flat order, then filter 1's, and
 * so on. Streaming consumers (the propagated forward pass, the
 * propagated weight codes) replay a layer's filters through it
 * without materializing them.
 */
class FilterWeightStream
{
  public:
    FilterWeightStream(const LayerSpec &layer, uint64_t seed,
                       int weight_range = kReferenceWeightRange);

    /**
     * The next weight, uniform in [-weight_range, weight_range]: the
     * draw rng.nextInRange(-weight_range, weight_range) makes, with
     * Lemire's bound and rejection threshold computed once. The loop
     * holds no check, division or call, so a caller's draw loop can
     * keep the generator state in registers.
     */
    int16_t
    next()
    {
        __uint128_t m;
        do
            m = static_cast<__uint128_t>(rng_.next()) * span_;
        while (static_cast<uint64_t>(m) < reject_);
        return static_cast<int16_t>(static_cast<int64_t>(m >> 64) -
                                    range_);
    }

  private:
    util::Xoshiro256 rng_;
    int range_;
    /** 2 * range_ + 1 draws. */
    uint64_t span_;
    /** 2^64 mod span_: a product whose low word is below it redraws. */
    uint64_t reject_;
};

/**
 * Deterministic random filters for functional testing:
 * layer.numFilters filters of the layer's geometry with weights
 * uniform in [-weight_range, weight_range] (FilterWeightStream order).
 */
std::vector<FilterTensor> synthesizeFilters(
    const LayerSpec &layer, uint64_t seed = 0xf117,
    int weight_range = kReferenceWeightRange);

} // namespace dnn
} // namespace pra

