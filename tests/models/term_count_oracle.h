/**
 * @file
 * The term-count oracle of the analytic and sweep tests: every
 * sampled window walked element by element, straight from the
 * tensors. models::countLayerTerms16 sums the same windows brick by
 * brick from the workload's planes, and it and the network counts
 * built on it must reproduce this walk.
 */

#pragma once

#include "dnn/activation_synth.h"
#include "dnn/layer_spec.h"
#include "dnn/network.h"
#include "dnn/tensor.h"
#include "models/analytic/term_count.h"
#include "sim/sampling.h"
#include "util/bits.h"

namespace pra {
namespace models {

/** One window's value statistics over one tensor. */
struct WalkStats
{
    int64_t elements = 0;
    int64_t nonZero = 0;
    int64_t pop = 0;
};

/**
 * The stats of the window at output position (wx, wy): each of its
 * Fx*Fy*I input neurons once, padding counted as a zero element.
 */
inline WalkStats
walkWindow(const dnn::LayerSpec &layer, const dnn::NeuronTensor &tensor,
           int wx, int wy)
{
    WalkStats stats;
    int base_x = wx * layer.stride - layer.pad;
    int base_y = wy * layer.stride - layer.pad;
    for (int fy = 0; fy < layer.filterY; fy++) {
        int y = base_y + fy;
        for (int fx = 0; fx < layer.filterX; fx++) {
            int x = base_x + fx;
            bool padding = x < 0 || x >= layer.inputX || y < 0 ||
                           y >= layer.inputY;
            for (int i = 0; i < layer.inputChannels; i++) {
                stats.elements++;
                if (padding)
                    continue;
                uint16_t v = tensor.at(x, y, i);
                if (v == 0)
                    continue;
                stats.nonZero++;
                stats.pop += util::popcount16(v);
            }
        }
    }
    return stats;
}

/**
 * One layer's counts by element walk: praTrimmed from @p trimmed,
 * every other series from @p raw.
 */
inline LayerTermCounts
walkLayerTerms16(const dnn::LayerSpec &layer, const dnn::NeuronTensor &raw,
                 const dnn::NeuronTensor &trimmed, bool reads_image,
                 const sim::SampleSpec &sample)
{
    sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
    const double filters = static_cast<double>(layer.numFilters);
    LayerTermCounts counts;
    for (int64_t w : plan.indices) {
        int wx = static_cast<int>(w % layer.outX());
        int wy = static_cast<int>(w / layer.outX());
        WalkStats s = walkWindow(layer, raw, wx, wy);
        WalkStats t = walkWindow(layer, trimmed, wx, wy);
        counts.dadn += 16.0 * s.elements * filters;
        counts.zn += 16.0 * s.nonZero * filters;
        counts.cvn +=
            16.0 * (reads_image ? s.elements : s.nonZero) * filters;
        counts.stripes += static_cast<double>(layer.profiledPrecision) *
                          s.elements * filters;
        counts.praRaw += static_cast<double>(s.pop) * filters;
        counts.praTrimmed += static_cast<double>(t.pop) * filters;
    }
    counts.dadn *= plan.scale;
    counts.zn *= plan.scale;
    counts.cvn *= plan.scale;
    counts.stripes *= plan.scale;
    counts.praRaw *= plan.scale;
    counts.praTrimmed *= plan.scale;
    return counts;
}

/** Figure 2's series by element walk over both synthesized streams. */
inline NetworkTerms16
walkNetworkTerms16(const dnn::Network &network,
                   const dnn::ActivationSynthesizer &synth,
                   const sim::SampleSpec &sample)
{
    LayerTermCounts totals;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const dnn::LayerSpec &layer = network.layers[i];
        if (!layer.priced())
            continue;
        const int idx = static_cast<int>(i);
        LayerTermCounts c = walkLayerTerms16(
            layer, synth.synthesizeFixed16(idx),
            synth.synthesizeFixed16Trimmed(idx), layer.readsImage(idx),
            sample);
        totals.dadn += c.dadn;
        totals.zn += c.zn;
        totals.cvn += c.cvn;
        totals.stripes += c.stripes;
        totals.praRaw += c.praRaw;
        totals.praTrimmed += c.praTrimmed;
    }
    NetworkTerms16 rel;
    rel.zn = totals.zn / totals.dadn;
    rel.cvn = totals.cvn / totals.dadn;
    rel.stripes = totals.stripes / totals.dadn;
    rel.praFp16 = totals.praRaw / totals.dadn;
    rel.praRed = totals.praTrimmed / totals.dadn;
    return rel;
}

/**
 * Figure 3's series by element walk over the 8-bit codes: 8 terms
 * per product for the baseline and per non-zero code for zero
 * skipping, one per essential bit for PRA.
 */
inline NetworkTerms8
walkNetworkTerms8(const dnn::Network &network,
                  const dnn::ActivationSynthesizer &synth,
                  const sim::SampleSpec &sample)
{
    double baseline = 0.0;
    double zero_skip = 0.0;
    double pra = 0.0;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const dnn::LayerSpec &layer = network.layers[i];
        if (!layer.priced())
            continue;
        const int idx = static_cast<int>(i);
        dnn::NeuronTensor codes = synth.synthesizeQuant8(idx);
        sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
        const double filters = static_cast<double>(layer.numFilters);
        double layer_baseline = 0.0;
        double layer_zero_skip = 0.0;
        double layer_pra = 0.0;
        for (int64_t w : plan.indices) {
            WalkStats s = walkWindow(
                layer, codes, static_cast<int>(w % layer.outX()),
                static_cast<int>(w / layer.outX()));
            layer_baseline += 8.0 * s.elements * filters;
            layer_zero_skip += 8.0 * s.nonZero * filters;
            layer_pra += static_cast<double>(s.pop) * filters;
        }
        baseline += layer_baseline * plan.scale;
        zero_skip += layer_zero_skip * plan.scale;
        pra += layer_pra * plan.scale;
    }
    NetworkTerms8 rel;
    rel.zeroSkip = zero_skip / baseline;
    rel.pra = pra / baseline;
    return rel;
}

} // namespace models
} // namespace pra
