/**
 * @file
 * Packed per-brick operand planes, parameterized by operand side.
 *
 * The simulator prices engines that exploit ineffectual *bits*, and
 * the unit of pricing is the 16-channel brick. This module owns the
 * packed summaries both operand sides reduce to, hoisted out of the
 * activation-only workload cache so weight-aware engines (Laconic,
 * and the per-group precision detectors of Dynamic-Stripes) share one
 * construction path with the Pragmatic cost layer
 * (models/pragmatic/brick_cost.h):
 *
 *  - activation side: BrickPlanes summarize a layer's input stream
 *    per brick *position* (x, y, brick) — term counts, schedule
 *    bounds, the lane-OR mask per-group precision detection reduces
 *    over — and LanePopPlanes keep the per-lane popcounts Laconic's
 *    serial act-side terms need;
 *
 *  - weight side: WeightBrickPlanes summarize the filter operand per
 *    *synapse-set lane* (set, lane), reduced across filters — term
 *    counts (sum of popcounts) and the busiest filter's popcount.
 *
 * Every plane is an exact, value-deterministic reduction of its
 * operand tensor (summarizeBrick is the one brick reduction), so a
 * plane entry equals the same summary rederived lane by lane from a
 * brick view, which is how the engine tests check them. The synthetic
 * (seed-independent, dnn/weight_synth.h) and propagated (requantized
 * reference filters) weight sources stream filter by filter through
 * one reducer, without materializing all filters at once.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"

namespace pra {
namespace sim {

/**
 * The packed summary of one brick's lanes — the single reduction every
 * plane builder shares. Missing lanes (padding, partial channel
 * bricks) count as zero, so a short or empty span is equivalent to
 * its zero-padded gather.
 */
struct BrickSummary
{
    int32_t pop = 0;      ///< Total set bits (effectual terms).
    uint8_t maxPop = 0;   ///< Busiest lane's popcount.
    uint8_t nonZero = 0;  ///< Non-zero lanes.
    uint16_t orMask = 0;  ///< OR of all lanes (essential-bit union).
};

/** Reduce one brick's lanes to its packed summary. */
BrickSummary summarizeBrick(std::span<const uint16_t> lanes);

/**
 * Packed per-brick planes of one activation stream. Bricks are
 * dnn::kBrickSize consecutive channels; entry (x, y, b) lives at flat
 * index (y * sizeX + x) * bricksPerColumn + b. The last brick of a
 * column is partial when the channel count is not a brick multiple
 * (missing lanes count as zero, as gathers pad them).
 */
struct BrickPlanes
{
    int sizeX = 0;
    int sizeY = 0;
    int bricksPerColumn = 0; ///< ceil(channels / kBrickSize).

    std::vector<int32_t> pop;    ///< Brick term (set-bit) totals.
    std::vector<uint8_t> maxPop; ///< Max lane popcount (L=4 cycles).
    std::vector<uint8_t> orPop;  ///< Popcount of lane OR (L=0 cycles).
    std::vector<uint8_t> nonZero; ///< Non-zero lanes in the brick.
    /**
     * OR of the brick's lanes — the essential-bit union a per-group
     * precision detector (Dynamic-Stripes) reduces further across a
     * column group; orPop is its popcount.
     */
    std::vector<uint16_t> orMask;

    size_t
    index(int x, int y, int brick) const
    {
        return (static_cast<size_t>(y) * sizeX + x) * bricksPerColumn +
               brick;
    }
};

/** Build the packed brick planes of @p tensor (must be non-empty). */
BrickPlanes buildBrickPlanes(const dnn::NeuronTensor &tensor);

/**
 * Per-lane popcounts of one activation stream, kBrickSize lanes per
 * brick position (missing lanes hold zero). The act-side operand of
 * Laconic's serial product terms: lane (x, y, b, l) lives at
 * index(x, y, b, l).
 */
struct LanePopPlanes
{
    int sizeX = 0;
    int sizeY = 0;
    int bricksPerColumn = 0; ///< ceil(channels / kBrickSize).

    std::vector<uint8_t> pop; ///< Per-lane set-bit counts.

    size_t
    index(int x, int y, int brick, int lane) const
    {
        return ((static_cast<size_t>(y) * sizeX + x) * bricksPerColumn +
                brick) *
                   dnn::kBrickSize +
               lane;
    }
};

/** Build the per-lane popcount planes of @p tensor (non-empty). */
LanePopPlanes buildLanePopPlanes(const dnn::NeuronTensor &tensor);

/**
 * Packed weight-side planes of one layer: per (synapse set, channel
 * lane), reduced across *all* of the layer's filters. A synapse set
 * is a (fy, fx, channel-brick) coordinate in LayerTiling::setCoord
 * order — set s = ((fy * Fx) + fx) * ceil(I / kBrickSize) + brick —
 * and lane l of set s covers input channel brickI + l (lanes beyond
 * the channel count hold zero).
 *
 * Multi-pass layers (more filters than one pass holds) share one
 * all-filter reduction: maxPop is then a worst-case-pass bound rather
 * than per-pass exact, which is the approximation
 * weight-aware engines price (sumPop stays exact — it is the total
 * weight-side term count across every filter).
 */
struct WeightBrickPlanes
{
    int numSets = 0; ///< Fx * Fy * ceil(I / kBrickSize).

    std::vector<int32_t> sumPop; ///< Set-bit total across filters.
    std::vector<uint8_t> maxPop; ///< Max filter popcount (this lane).

    size_t
    index(int set, int lane) const
    {
        return static_cast<size_t>(set) * dnn::kBrickSize + lane;
    }
};

/**
 * Weight planes of the deterministic synthetic weight streams
 * (dnn/weight_synth.h): a pure function of the layer name, geometry,
 * and profiled weight precision — no network or seed context, so every
 * synthetic workload of a layer derives bit-identical planes.
 */
WeightBrickPlanes syntheticWeightPlanes(const dnn::LayerSpec &layer);

/**
 * Weight planes of the propagated reference filters: the exact
 * synthesizeFilters(layer, synth_seed ^ kPropagationFilterSalt)
 * weights the forward pass convolves (and, like it, replays through
 * dnn::FilterWeightStream), requantized into the layer's profiled
 * weight-precision window by dnn::PropagatedWeightCodes. Each weight
 * is drawn once, streamed one filter at a time — peak memory is one
 * filter, not the whole layer.
 */
WeightBrickPlanes propagatedWeightPlanes(const dnn::LayerSpec &layer,
                                         uint64_t synth_seed);

} // namespace sim
} // namespace pra
