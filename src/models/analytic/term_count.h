/**
 * @file
 * Analytic term-count models (paper Section II, Figures 2 and 3).
 *
 * The paper motivates Pragmatic by counting the *terms* (single-bit
 * multiplicand/multiplicator products, equivalently additions) each
 * compute approach performs for the convolutional layers:
 *
 *  - DaDN:     16 terms per product (bit-parallel, value-blind);
 *  - ZN:       ideal engine skipping every zero-valued neuron;
 *  - CVN:      Cnvlutin — skips zero neurons in all but the first
 *              layer (whose input is not ReLU output);
 *  - STR:      p terms per product for a layer of precision p;
 *  - PRA-fp16: one term per essential (set) bit of the raw neuron;
 *  - PRA-red:  one term per essential bit after software trimming.
 *
 * For the 8-bit quantized stream the baseline is 8 terms per product;
 * the ideal zero-skip engine and PRA are counted the same way.
 *
 * One counter serves both figures and the `terms` engine: it sums
 * each sampled window's bricks from the stream's brick planes
 * (sim::BrickPlanes), one stream per call.
 */

#pragma once

#include "dnn/activation_synth.h"
#include "dnn/layer_spec.h"
#include "dnn/network.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"

namespace pra {
namespace models {

/** Absolute term counts for one layer (sampled and scaled). */
struct LayerTermCounts
{
    double dadn = 0.0;
    double zn = 0.0;
    double cvn = 0.0;
    double stripes = 0.0;
    double praRaw = 0.0;     ///< PRA-fp16: essential bits, untrimmed.
    double praTrimmed = 0.0; ///< PRA-red: essential bits after trim.
};

/**
 * Count terms for one layer of one stream, accumulated
 * brick-at-a-time from the workload's per-brick term planes.
 *
 * Each series is exact when @p stream is the one it reads: zn, cvn
 * and praRaw count the raw stream, praTrimmed the trimmed one (both
 * pra fields hold the stream's essential bits), and dadn and stripes
 * depend on no value.
 *
 * @param layer    geometry and profiled precision.
 * @param stream   the layer's input neurons.
 * @param reads_image CVN cannot skip zeros in the image input
 *                 (dnn::LayerSpec::readsImage).
 * @param sample   window sampling policy (unit = window).
 */
LayerTermCounts
countLayerTerms16(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &stream, bool reads_image,
                  const sim::SampleSpec &sample);

/** Relative (to DaDN) term counts for one network, 16-bit stream. */
struct NetworkTerms16
{
    double zn = 0.0;
    double cvn = 0.0;
    double stripes = 0.0;
    double praFp16 = 0.0;
    double praRed = 0.0;
};

/**
 * Compute Figure 2's series for one network: each priced layer's raw
 * stream gives every series but PRA-red, its trimmed stream PRA-red.
 */
NetworkTerms16 countNetworkTerms16(const dnn::Network &network,
                                   const dnn::ActivationSynthesizer &synth,
                                   const sim::SampleSpec &sample);

/** Relative (to the 8-bit baseline) term counts, quantized stream. */
struct NetworkTerms8
{
    double zeroSkip = 0.0; ///< Ideal engine skipping zero codes.
    double pra = 0.0;      ///< Essential bits of the 8-bit codes.
};

/**
 * Compute Figure 3's series for one network from each priced layer's
 * Quant8 stream.
 */
NetworkTerms8 countNetworkTerms8(const dnn::Network &network,
                                 const dnn::ActivationSynthesizer &synth,
                                 const sim::SampleSpec &sample);

} // namespace models
} // namespace pra

