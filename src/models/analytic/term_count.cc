#include "models/analytic/term_count.h"

#include "util/check.h"

namespace pra {
namespace models {

namespace {

/** One window's value statistics over one stream. */
struct WindowStats
{
    int64_t elements = 0;
    int64_t nonZero = 0;
    int64_t pop = 0; ///< Essential bits of the stream's neurons.
};

/**
 * Accumulate the stats of the window at output position (wx, wy):
 * each of its Fx*Fy*I input neurons is used once per filter. Whole
 * bricks are summed from the precomputed planes; padding columns
 * count as elements with no value.
 */
WindowStats
planeWindowStats(const dnn::LayerSpec &layer,
                 const sim::BrickPlanes &planes, int wx, int wy)
{
    WindowStats stats;
    int base_x = wx * layer.stride - layer.pad;
    int base_y = wy * layer.stride - layer.pad;
    for (int fy = 0; fy < layer.filterY; fy++) {
        int y = base_y + fy;
        for (int fx = 0; fx < layer.filterX; fx++) {
            int x = base_x + fx;
            stats.elements += layer.inputChannels;
            if (x < 0 || x >= layer.inputX || y < 0 ||
                y >= layer.inputY)
                continue;
            size_t idx = planes.index(x, y, 0);
            for (int b = 0; b < planes.bricksPerColumn; b++) {
                stats.nonZero += planes.nonZero[idx + b];
                stats.pop += planes.pop[idx + b];
            }
        }
    }
    return stats;
}

} // namespace

LayerTermCounts
countLayerTerms16(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &stream, bool reads_image,
                  const sim::SampleSpec &sample)
{
    sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
    PRA_CHECK(!plan.indices.empty(), "countLayerTerms16: no windows");

    const sim::BrickPlanes &planes = stream.brickPlanes();
    const double filters = static_cast<double>(layer.numFilters);
    LayerTermCounts counts;
    for (int64_t w : plan.indices) {
        int wx = static_cast<int>(w % layer.outX());
        int wy = static_cast<int>(w / layer.outX());
        WindowStats stats = planeWindowStats(layer, planes, wx, wy);
        counts.dadn += 16.0 * stats.elements * filters;
        counts.zn += 16.0 * stats.nonZero * filters;
        counts.cvn += 16.0 *
                      (reads_image ? stats.elements : stats.nonZero) *
                      filters;
        counts.stripes += static_cast<double>(layer.profiledPrecision) *
                          stats.elements * filters;
        counts.praRaw += static_cast<double>(stats.pop) * filters;
    }
    counts.dadn *= plan.scale;
    counts.zn *= plan.scale;
    counts.cvn *= plan.scale;
    counts.stripes *= plan.scale;
    counts.praRaw *= plan.scale;
    counts.praTrimmed = counts.praRaw;
    return counts;
}

NetworkTerms16
countNetworkTerms16(const dnn::Network &network,
                    const dnn::ActivationSynthesizer &synth,
                    const sim::SampleSpec &sample)
{
    const sim::WorkloadSource source(synth);
    LayerTermCounts totals;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const dnn::LayerSpec &layer = network.layers[i];
        if (!layer.priced())
            continue; // Structural pools contribute no terms.
        const int idx = static_cast<int>(i);
        const bool reads_image = layer.readsImage(idx);
        LayerTermCounts raw = countLayerTerms16(
            layer, *source.layer(idx, sim::InputStream::Fixed16Raw),
            reads_image, sample);
        LayerTermCounts trimmed = countLayerTerms16(
            layer, *source.layer(idx, sim::InputStream::Fixed16Trimmed),
            reads_image, sample);
        totals.dadn += raw.dadn;
        totals.zn += raw.zn;
        totals.cvn += raw.cvn;
        totals.stripes += raw.stripes;
        totals.praRaw += raw.praRaw;
        totals.praTrimmed += trimmed.praTrimmed;
    }
    PRA_CHECK(totals.dadn > 0.0, "countNetworkTerms16: zero baseline");
    NetworkTerms16 rel;
    rel.zn = totals.zn / totals.dadn;
    rel.cvn = totals.cvn / totals.dadn;
    rel.stripes = totals.stripes / totals.dadn;
    rel.praFp16 = totals.praRaw / totals.dadn;
    rel.praRed = totals.praTrimmed / totals.dadn;
    return rel;
}

NetworkTerms8
countNetworkTerms8(const dnn::Network &network,
                   const dnn::ActivationSynthesizer &synth,
                   const sim::SampleSpec &sample)
{
    // The 8-bit baseline spends 8 terms per product where DaDN spends
    // 16, so the dense and zero-skip counts are the 16-bit ones
    // halved (exact in binary); PRA still counts essential bits.
    const sim::WorkloadSource source(synth);
    double baseline = 0.0;
    double zero_skip = 0.0;
    double pra = 0.0;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const dnn::LayerSpec &layer = network.layers[i];
        if (!layer.priced())
            continue; // Structural pools contribute no terms.
        const int idx = static_cast<int>(i);
        LayerTermCounts c = countLayerTerms16(
            layer, *source.layer(idx, sim::InputStream::Quant8),
            layer.readsImage(idx), sample);
        baseline += c.dadn / 2.0;
        zero_skip += c.zn / 2.0;
        pra += c.praRaw;
    }
    PRA_CHECK(baseline > 0.0, "countNetworkTerms8: zero baseline");
    NetworkTerms8 rel;
    rel.zeroSkip = zero_skip / baseline;
    rel.pra = pra / baseline;
    return rel;
}

} // namespace models
} // namespace pra
