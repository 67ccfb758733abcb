/**
 * @file
 * Deterministic weight-code synthesis — the weight-side counterpart
 * of activation_synth.h.
 *
 * Weight-aware engines (Laconic's both-operand term counts, the
 * weight-side planes of sim/operand_planes.h) consume per-weight
 * magnitude codes inside each layer's profiled weight-precision
 * window (LayerSpec::profiledWeightPrecision, from the model zoo).
 * Real trained weights are not available offline, so this module
 * synthesizes codes whose bit statistics follow the same discretized-
 * exponential shape the activation synthesizer calibrates: trained
 * weight magnitudes are Laplacian-ish, so most codes carry only a few
 * essential bits (kWeightPopcountTarget), with a small exactly-zero
 * fraction (kWeightZeroFraction) from pruned/underflowed weights.
 *
 * Two sources, mirroring ActivationMode:
 *
 *  - Synthetic (synthesizeWeightCodes): counter-seeded per
 *    (layer name, weight precision, filter) from the fixed
 *    kWeightStreamSeed — a pure function of the layer, with no
 *    network or run-seed context. So a cached workload, an uncached
 *    one and a test's reference all rederive the same codes from the
 *    LayerSpec alone.
 *
 *  - Propagated (PropagatedWeightCodes): the exact
 *    synthesizeFilters(layer, seed ^ kPropagationFilterSalt) weights
 *    the reference forward pass (dnn/propagate.h) convolves,
 *    requantized by magnitude into the profiled weight window —
 *    streamed one filter at a time so peak memory is one filter,
 *    and each weight drawn once.
 */

#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dnn/activation_synth.h"
#include "dnn/layer_spec.h"

namespace pra {
namespace dnn {

/**
 * Fixed seed of the synthetic weight streams. Deliberately not a
 * function of the run's --seed: a layer's weights model one trained
 * network, shared by every run, image, and engine that prices it
 * (the activation seed only varies the *input* streams).
 */
inline constexpr uint64_t kWeightStreamSeed = 0x3157'ee00'5eed'cafeull;

/** Fraction of exactly-zero synthetic weights (pruned/underflow). */
inline constexpr double kWeightZeroFraction = 0.05;

/**
 * Target essential-bit count of non-zero synthetic weight codes —
 * the Laplacian-shape analogue of kLightComponentPopcount.
 */
inline constexpr double kWeightPopcountTarget = 2.2;

/**
 * Fill @p out (length layer.synapsesPerFilter(), FilterTensor flat
 * order (fy * Fx + fx) * I + c) with the synthetic magnitude codes of
 * filter @p filter. Codes lie in [0, 2^wp) for
 * wp = layer.profiledWeightPrecision; the draw is a pure function of
 * (layer.name, wp, filter).
 */
void synthesizeWeightCodes(const LayerSpec &layer, int filter,
                           std::span<uint16_t> out);

/**
 * Streaming view of the propagated reference weights as magnitude
 * codes: |w| of each synthesizeFilters(layer, synth_seed ^
 * kPropagationFilterSalt) weight, scaled so the layer's max |w| maps
 * to the top of the profiled weight window (code
 * (1 << wp) - 1). Construction finds that max by replaying the
 * weight stream only until it draws kReferenceWeightRange (the bound
 * no weight exceeds), scanning the whole layer only when it never
 * does. filterCodes() then draws each weight once, filter by filter,
 * mapping |w| through a per-magnitude code table, so filters must be
 * requested in order 0..numFilters-1 exactly once.
 */
class PropagatedWeightCodes
{
  public:
    PropagatedWeightCodes(const LayerSpec &layer, uint64_t synth_seed);

    /** The layer-wide max weight magnitude the scale anchors to. */
    int maxMagnitude() const { return maxMag_; }

    /**
     * Fill @p out (length layer.synapsesPerFilter(), FilterTensor
     * flat order) with filter @p filter's requantized codes.
     * @p filter must advance sequentially from 0.
     */
    void filterCodes(int filter, std::span<uint16_t> out);

  private:
    LayerSpec layer_;
    FilterWeightStream weights_;
    int nextFilter_ = 0;
    int maxMag_ = 0;
    /** codeOf_[m]: the code of a weight of magnitude m. */
    std::array<uint16_t, kReferenceWeightRange + 1> codeOf_{};
};

} // namespace dnn
} // namespace pra
