/**
 * @file
 * Propagated-activation pipeline: the reference forward pass.
 *
 * Synthetic workloads price every layer against an independently
 * synthesized stream, which makes inter-layer correlation invisible:
 * ReLU sparsity feeding the next convolution, pooling concentrating
 * magnitudes, the fc tail consuming what the conv trunk actually
 * produced. This module instead runs the network once, layer by
 * layer, so each layer's *input tensor is the previous layer's actual
 * output* (the approach trace-driven simulators like DNNsim take with
 * recorded forward passes):
 *
 *  1. Layer 0 consumes the synthesized image stream — bit-identical
 *     to the synthetic mode's layer-0 input, so the two modes share
 *     their only common workload.
 *  2. A conv/FC layer runs the blocked convolution kernel
 *     (BlockedConvolution, dnn/reference.h) against deterministic
 *     synthesized filters, accumulating exactly into int64. The
 *     filters stream through the kernel one block at a time, so no
 *     layer's filters are ever materialized whole. A single-window
 *     layer (every FC layer) skips the blocks: each weight is
 *     multiplied into its filter's sum as it is drawn.
 *  3. ReLU zeroes the negative accumulators.
 *  4. Pool layers reduce the int64 activations (max or average)
 *     without requantizing — pooling is shape bridging, not a priced
 *     computation.
 *  5. When the next *priced* layer consumes the activations, they are
 *     requantized into that layer's 16-bit profiled-precision window:
 *     the layer maximum maps linearly onto the top of the window
 *     [anchor, anchor + p - 1] with anchor = min(kNoiseSuffixBits,
 *     16 - p) — the same window synthetic calibration uses. The
 *     requantized codes carry no sub-window noise, so Section V-F
 *     trimming is a no-op on propagated streams by construction.
 *
 * Everything is deterministic in (network, seed) alone: no sampling,
 * no thread-count dependence, so cached and per-cell rebuilt chains
 * are bit-identical.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/network.h"
#include "dnn/reference.h"
#include "dnn/tensor.h"
#include "fixedpoint/quantization.h"

namespace pra {
namespace dnn {

/**
 * Seed salt for the forward-pass filters, so the propagated filters
 * of a layer are independent of (but deterministic alongside) any
 * filters tests synthesize with the default salt.
 */
inline constexpr uint64_t kPropagationFilterSalt = 0xf0f0'aa55'1234'9876;

/** The materialized forward pass of one network. */
struct PropagatedChain
{
    /**
     * inputs[i]: the 16-bit input stream of layers[i], requantized
     * into that layer's profiled window. Pool layers consume raw
     * int64 activations instead and hold an empty tensor here (they
     * are never priced, so no engine asks for their stream).
     */
    std::vector<NeuronTensor> inputs;

    /**
     * inputScale[i]: the real activation value one unit of the
     * *unshifted* code of inputs[i] represents (layer max /
     * (2^p - 1)), or 0 for pools and all-zero inputs. Recorded for
     * diagnostics and tests; engines consume codes only.
     */
    std::vector<double> inputScale;
};

/**
 * Run the reference forward pass of @p synth's network (which must be
 * chain-consistent — a full pipeline with its pool layers, not a
 * filtered selection; fatal() otherwise). Layer 0's input is
 * synth.synthesizeFixed16(0, image); filters are the
 * synthesizeFilters() weights seeded by (synth.seed() ^
 * kPropagationFilterSalt), streamed through FilterWeightStream block
 * by block rather than materialized — the whole batch shares one
 * trained model, so filters do not vary with @p image, only the
 * input image (and hence every propagated stream) does. Image 0 is
 * the historical chain, byte-identical to the pre-batch pipeline.
 */
PropagatedChain propagateChain(const ActivationSynthesizer &synth,
                               int image = 0);

/**
 * Pool the int64 activation tensor @p input through pool layer
 * @p layer (max or average). Ceil-mode pools may overhang the input;
 * out-of-range elements are skipped (max) or excluded from the
 * divisor (average, integer division truncating toward zero).
 */
Tensor3D<int64_t> poolForward(const LayerSpec &layer,
                              const Tensor3D<int64_t> &input);

/**
 * Requantize non-negative int64 activations into a p-bit window
 * anchored @p anchor_lsb above bit 0: value v maps to
 * round(v * (2^p - 1) / max) << anchor_lsb. An all-zero tensor maps
 * to all-zero codes. @p max_out (optional) receives the tensor
 * maximum, saving callers that need the scale a second full scan.
 */
NeuronTensor requantizeToWindow(const Tensor3D<int64_t> &activations,
                                int precision_bits, int anchor_lsb,
                                int64_t *max_out = nullptr);

/**
 * The software-trimmed view of a propagated stream: codes ANDed with
 * the layer's precision window at the synthesis anchor (identical to
 * the rule synthetic trimming applies). Requantized codes already
 * live inside the window, so this is the identity on chain inputs —
 * kept as an explicit operation so trimmed/untrimmed engine variants
 * stay well defined in propagated mode.
 */
NeuronTensor trimToPrecision(const LayerSpec &layer,
                             const NeuronTensor &stream);

/**
 * The 8-bit quantized view of a propagated stream: TF-style affine
 * quantization of the 16-bit codes with per-layer parameters chosen
 * from the stream itself (chooseQuantParams — zero-nudged, so ReLU
 * zeros stay code 0 and zero-skip semantics survive quantization).
 * @p params_out (optional) receives the chosen parameters.
 */
NeuronTensor quantizeStream(const NeuronTensor &stream,
                            fixedpoint::QuantParams *params_out =
                                nullptr);

} // namespace dnn
} // namespace pra

