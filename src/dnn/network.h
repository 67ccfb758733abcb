/**
 * @file
 * A network: the ordered layers the accelerators run — convolutional
 * and fully-connected, each a LayerSpec with a kind — plus the
 * published per-network neuron-stream statistics used to calibrate
 * the synthetic activation generator (see DESIGN.md §3).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/layer_spec.h"

namespace pra {
namespace dnn {

/**
 * Per-network neuron bit statistics from the paper, used as
 * calibration targets for synthetic activations.
 */
struct BitStatsTargets
{
    /** Table I, 16-bit fixed point: set-bit fraction over all neurons. */
    double all16 = 0.10;
    /** Table I, 16-bit fixed point: set-bit fraction over non-zero. */
    double nz16 = 0.20;
    /** Table I, 8-bit quantized: over all neurons. */
    double all8 = 0.30;
    /** Table I, 8-bit quantized: over non-zero neurons. */
    double nz8 = 0.42;
    /**
     * Table V: fraction of PRA's speedup due to software-provided
     * precisions; calibrates how much essential-bit content the
     * per-layer trimming removes.
     */
    double softwareBenefit = 0.19;

    /** Implied zero-neuron fraction of the 16-bit stream. */
    double zeroFraction16() const { return 1.0 - all16 / nz16; }
    /** Implied zero-neuron fraction of the 8-bit stream. */
    double zeroFraction8() const { return 1.0 - all8 / nz8; }
};

/** A named network: layers in execution order. */
struct Network
{
    std::string name;
    std::vector<LayerSpec> layers;
    BitStatsTargets targets;

    /**
     * Total multiply-accumulates over the *priced* layers (pool
     * layers bridge shapes; their reductions are not MACs).
     */
    int64_t totalProducts() const;

    /**
     * True when every layer's input shape matches the output of its
     * producers: each layer consumes the previous layer's output (or
     * the channel-concatenation of its explicit producers), with
     * fully-connected layers flattening the producer output into
     * their 1 x 1 x I column. Layer 0 must have no producers (it
     * consumes the image). On failure, @p why (when non-null)
     * receives a one-line description of the first mismatch.
     *
     * Synthetic-stream workloads don't need this (each layer's
     * stream is synthesized independently), so filtered selections —
     * e.g. the conv-only paper workload, whose conv2 consumes a
     * pooled conv1 output that is not in the list — legitimately
     * fail it. Propagation, however, is impossible without it:
     * propagateChain() requires it, and valid() enforces it for
     * pipeline-shaped networks (any pool layer or explicit producer
     * present), where a shape break is a construction bug.
     */
    bool chainConsistent(std::string *why = nullptr) const;

    /**
     * Order-sensitive hash of everything that shapes this network's
     * synthesized workloads: the layer list (names, kinds, geometry,
     * ordinals) and the calibration targets. Two selections of the
     * same network differ here, as do same-named networks with
     * different targets, so caches keyed by network name fold this
     * in to keep "same name, different workload" entries apart.
     */
    uint64_t workloadFingerprint() const;

    /**
     * True when every layer spec is well formed — and, for
     * pipeline-shaped networks (any pool layer or explicit producer
     * list present), when the layers chain shape-consistently (see
     * chainConsistent()). Hand-built single-layer or filtered
     * networks carry neither pools nor producers, so the chain check
     * does not apply to them.
     */
    bool valid() const;
};

} // namespace dnn
} // namespace pra

