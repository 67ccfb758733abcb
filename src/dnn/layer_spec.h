/**
 * @file
 * Layer geometry (paper Section IV-A), generalized over layer kinds.
 *
 * A convolutional layer applies N filters of Fx x Fy x I synapses
 * over an Nx x Ny x I input with stride S (and optional zero padding,
 * which the real networks use even though the paper's formula elides
 * it), producing an Ox x Oy x N output. All cycle and term counts
 * derive from this geometry plus the neuron bit patterns.
 *
 * A fully-connected layer is expressed in the same geometry by the
 * canonical lowering every unit-level simulator uses (DNNsim models
 * InnerProduct the same way): its I inputs become a 1 x 1 x I input
 * column and each of its N output neurons a 1 x 1 x I filter, so the
 * layer is a convolution with a single window. Because the lowering
 * is exact, every engine prices FC layers through its existing
 * schedule/term paths — an FC layer costs bit-for-bit the same as its
 * hand-built 1x1xI convolutional twin.
 *
 * A pooling layer (max or average) is *structural*: the accelerators
 * never price it (pooling is a trivial reduction next to the NFU
 * work), but the propagated-activation pipeline needs it to bridge
 * shapes between priced layers — e.g. AlexNet pool5 turns conv5's
 * 13x13x256 output into the 6x6x256 tensor fc6 consumes. Pool layers
 * reuse the filter fields for the pooling window, preserve depth
 * (numFilters == inputChannels), and may use ceil output rounding
 * (Caffe-style) where the published network shapes require it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fixedpoint/precision.h"

namespace pra {
namespace dnn {

/** What a layer computes; geometry is shared, validation is not. */
enum class LayerKind
{
    Conv,           ///< Spatial convolution.
    FullyConnected, ///< Inner product, lowered to a 1x1xI window.
    Pool,           ///< Spatial pooling: shape bridging, never priced.
};

/** Pooling reduction for LayerKind::Pool. */
enum class PoolOp { Max, Avg };

/**
 * Which layer kinds a workload includes. Conv is the default
 * everywhere so pre-existing sweeps and figures are unchanged.
 * Pool layers ride along only under All (they are priced by no
 * engine, but the propagated-activation pipeline needs the full
 * chain); Conv and Fc selections drop them.
 */
enum class LayerSelect { Conv, Fc, All };

/** True when @p select includes layers of @p kind. */
bool layerSelected(LayerKind kind, LayerSelect select);

/** Static description of one layer. */
struct LayerSpec
{
    std::string name;

    LayerKind kind = LayerKind::Conv;

    int inputX = 0;        ///< Nx: input width.
    int inputY = 0;        ///< Ny: input height.
    int inputChannels = 0; ///< I: input depth.

    int filterX = 0;       ///< Fx: filter width (pool window width).
    int filterY = 0;       ///< Fy: filter height (pool window height).
    int numFilters = 0;    ///< N: filter count == output depth.

    int stride = 1;        ///< S: window stride.
    int pad = 0;           ///< Zero padding on each border.

    /** Pool layers only: the pooling reduction. */
    PoolOp poolOp = PoolOp::Max;

    /**
     * Pool layers only: Caffe-style ceil output rounding. The
     * published networks mix conventions (VGG-M pool2 needs
     * ceil((26-3)/2)+1 == 13 while VGG-S pool1 needs
     * floor((109-3)/3)+1 == 36), so each pool carries its own.
     * A ceil pool's last window may overhang the input; the pooling
     * reduction clamps it to in-range elements.
     */
    bool poolCeil = false;

    /**
     * Profiled neuron precision in bits for this layer's *input*
     * neuron stream (paper Table II); drives Stripes' cycle count and
     * PRA's software-guided trimming.
     */
    int profiledPrecision = 16;

    /**
     * Profiled *weight* precision in bits: the magnitude window the
     * layer's weight codes occupy (DNNsim-style per-layer weight
     * profiles). Only weight-aware engines (Laconic, weight-side
     * planes) consume it; activation-only engines never read it.
     */
    int profiledWeightPrecision = 8;

    /**
     * The layer's position among the *priced* (non-pool) layers of
     * its unfiltered network, or -1 when unknown (hand-built layers
     * and pool layers). The model zoo assigns it before applying a
     * layer selection; activation synthesis seeds streams by it, so
     * the same logical layer gets the same stream no matter which
     * selection it survived into — and adding or removing structural
     * pool layers never reshuffles the streams of priced layers.
     */
    int ordinal = -1;

    /**
     * Indices (into the unfiltered layer list) of the layers whose
     * outputs this layer consumes. Empty means "the previous layer"
     * — the only form linear networks need. More than one producer
     * means the inputs are concatenated along the channel dimension
     * in list order (GoogLeNet's inception modules: the four branch
     * outputs concatenate into the next consumer's input). Only the
     * chain-consistency check and the propagated-activation pipeline
     * interpret producers; selections other than All clear them
     * (filtering invalidates the indices).
     */
    std::vector<int> producers;

    /** True for layers the engines price (everything but Pool). */
    bool priced() const { return kind != LayerKind::Pool; }

    /**
     * True when this layer reads the network's image rather than a
     * ReLU output: it is convolutional and first among the priced
     * layers of its unfiltered network, by its ordinal or, when it
     * has none, by @p index (its position in the layer list; -1
     * when unknown). The image is dense, so Cnvlutin cannot skip it
     * (Section II-B), and synthesis spreads its pixels uniformly
     * across the precision window. An FC-selected network starts at
     * fc6, whose input is a pooled ReLU output.
     */
    bool readsImage(int index = -1) const
    {
        return (ordinal >= 0 ? ordinal : index) == 0 &&
               kind == LayerKind::Conv;
    }

    /** Output depth: numFilters (pools preserve inputChannels). */
    int outChannels() const { return numFilters; }

    /**
     * Build a fully-connected layer over @p inputs inputs and
     * @p outputs output neurons in its canonical lowered form:
     * a 1 x 1 x inputs input, outputs filters of 1 x 1 x inputs,
     * stride 1, no padding.
     */
    static LayerSpec fullyConnected(std::string name, int inputs,
                                    int outputs, int precision = 16,
                                    int weight_precision = 8);

    /**
     * Build a pooling layer: a @p window x @p window reduction with
     * stride @p stride over an @p in_x x @p in_y x @p channels input,
     * depth-preserving. @p ceil_mode selects Caffe-style ceil output
     * rounding (see poolCeil).
     */
    static LayerSpec pool(std::string name, int in_x, int in_y,
                          int channels, int window, int stride,
                          PoolOp op, int pad = 0,
                          bool ceil_mode = false);

    /**
     * Output width: floor((Nx + 2*pad - Fx) / S) + 1, or the ceil of
     * the division for pool layers with poolCeil set.
     *
     * Floor semantics: when the stride does not tile the padded input
     * exactly, the trailing positions that cannot fit a full window
     * are dropped (the convention real networks rely on — e.g.
     * VGG-M conv2: floor((54 + 2 - 5) / 2) + 1 = 26).
     */
    int outX() const;
    /** Output height, with the same rounding semantics as outX(). */
    int outY() const;
    /** Number of windows == output neurons per filter. */
    int64_t windows() const;
    /** Synapses per filter: Fx * Fy * I. */
    int64_t synapsesPerFilter() const;
    /** Total synapses (parameters): N * Fx * Fy * I. */
    int64_t synapses() const;
    /** Multiply-accumulate count: windows * N * Fx * Fy * I. */
    int64_t products() const;
    /** Bricks per window: Fx * Fy * ceil(I / 16). */
    int64_t bricksPerWindow() const;
    /** Input neuron count: Nx * Ny * I. */
    int64_t inputNeurons() const;
    /** Output neuron count: Ox * Oy * N. */
    int64_t outputNeurons() const;

    /**
     * The trimming window implied by the profiled precision: the
     * retained bits are anchored @p anchor_lsb positions above bit 0
     * (the synthesis keeps suffix noise below the anchor; see
     * dnn/activation_synth.h).
     */
    fixedpoint::PrecisionWindow precisionWindow(int anchor_lsb) const;

    /**
     * Sanity-check the geometry; returns false on malformed specs.
     *
     * All kinds: positive dimensions, stride >= 1, pad >= 0,
     * profiled neuron and weight precisions in [1, 16], and the
     * filter must fit the
     * padded input on each axis (checked symmetrically for X and Y);
     * outX()/outY() floor semantics then guarantee at least one
     * window per axis, so a non-tiling stride is *accepted* — the
     * dropped trailing positions are documented behavior, not an
     * error. FullyConnected additionally requires the canonical
     * lowered form (1x1 spatial extent, stride 1, no padding); Pool
     * requires depth preservation (numFilters == inputChannels).
     */
    bool valid() const;
};

} // namespace dnn
} // namespace pra

