#include "models/analytic/term_count.h"

#include "fixedpoint/fixed_point.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

/** Per-window accumulation of value statistics. */
struct WindowStats
{
    int64_t elements = 0;
    int64_t nonZero = 0;
    int64_t popRaw = 0;
    int64_t popTrimmed = 0;
};

/**
 * Accumulate the stats of the window at output position (wx, wy):
 * each of its Fx*Fy*I input neurons is used once per filter.
 */
WindowStats
windowStats(const dnn::LayerSpec &layer, const dnn::NeuronTensor &raw,
            const dnn::NeuronTensor *trimmed, int wx, int wy)
{
    WindowStats stats;
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
                uint16_t v = raw.at(x, y, i);
                if (v == 0)
                    continue;
                stats.nonZero++;
                stats.popRaw += util::popcount16(v);
                if (trimmed)
                    stats.popTrimmed +=
                        util::popcount16(trimmed->at(x, y, i));
            }
        }
    }
    return stats;
}

/**
 * The same accumulation as windowStats over one stream, but summing
 * whole bricks from the precomputed planes (identical integers,
 * ~kBrickSize fewer iterations). Both pop fields hold the stream's
 * essential bits.
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
                stats.popRaw += planes.pop[idx + b];
            }
        }
    }
    stats.popTrimmed = stats.popRaw;
    return stats;
}

/** Fold one window's stats into the layer counts. */
void
addWindowCounts(LayerTermCounts &counts, const dnn::LayerSpec &layer,
                const WindowStats &stats, bool reads_image)
{
    double filters = static_cast<double>(layer.numFilters);
    counts.dadn += 16.0 * stats.elements * filters;
    counts.zn += 16.0 * stats.nonZero * filters;
    counts.cvn += 16.0 *
                  (reads_image ? stats.elements : stats.nonZero) *
                  filters;
    counts.stripes += static_cast<double>(layer.profiledPrecision) *
                      stats.elements * filters;
    counts.praRaw += static_cast<double>(stats.popRaw) * filters;
    counts.praTrimmed += static_cast<double>(stats.popTrimmed) *
                         filters;
}

void
scaleCounts(LayerTermCounts &counts, double scale)
{
    counts.dadn *= scale;
    counts.zn *= scale;
    counts.cvn *= scale;
    counts.stripes *= scale;
    counts.praRaw *= scale;
    counts.praTrimmed *= scale;
}

} // namespace

LayerTermCounts
countLayerTerms16(const dnn::LayerSpec &layer,
                  const dnn::NeuronTensor &raw,
                  const dnn::NeuronTensor &trimmed,
                  bool reads_image, const sim::SampleSpec &sample)
{
    sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
    PRA_CHECK(!plan.indices.empty(),
                         "countLayerTerms16: no windows");

    LayerTermCounts counts;
    for (int64_t w : plan.indices) {
        int wx = static_cast<int>(w % layer.outX());
        int wy = static_cast<int>(w / layer.outX());
        WindowStats stats = windowStats(layer, raw, &trimmed, wx, wy);
        addWindowCounts(counts, layer, stats, reads_image);
    }
    scaleCounts(counts, plan.scale);
    return counts;
}

LayerTermCounts
countLayerTerms16(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &stream, bool reads_image,
                  const sim::SampleSpec &sample)
{
    sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
    PRA_CHECK(!plan.indices.empty(),
                         "countLayerTerms16: no windows");

    const sim::BrickPlanes &planes = stream.brickPlanes();
    LayerTermCounts counts;
    for (int64_t w : plan.indices) {
        int wx = static_cast<int>(w % layer.outX());
        int wy = static_cast<int>(w / layer.outX());
        addWindowCounts(counts, layer,
                        planeWindowStats(layer, planes, wx, wy),
                        reads_image);
    }
    scaleCounts(counts, plan.scale);
    return counts;
}

NetworkTerms16
countNetworkTerms16(const dnn::Network &network,
                    const dnn::ActivationSynthesizer &synth,
                    const sim::SampleSpec &sample)
{
    LayerTermCounts totals;
    for (size_t i = 0; i < network.layers.size(); i++) {
        if (!network.layers[i].priced())
            continue; // Structural pools contribute no terms.
        dnn::NeuronTensor raw =
            synth.synthesizeFixed16(static_cast<int>(i));
        dnn::NeuronTensor trimmed =
            synth.synthesizeFixed16Trimmed(static_cast<int>(i));
        LayerTermCounts c = countLayerTerms16(
            network.layers[i], raw, trimmed,
            network.layers[i].readsImage(static_cast<int>(i)), sample);
        totals.dadn += c.dadn;
        totals.zn += c.zn;
        totals.cvn += c.cvn;
        totals.stripes += c.stripes;
        totals.praRaw += c.praRaw;
        totals.praTrimmed += c.praTrimmed;
    }
    PRA_CHECK(totals.dadn > 0.0,
                         "countNetworkTerms16: zero baseline");
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
    double baseline = 0.0;
    double zero_skip = 0.0;
    double pra = 0.0;
    for (size_t i = 0; i < network.layers.size(); i++) {
        const auto &layer = network.layers[i];
        if (!layer.priced())
            continue; // Structural pools contribute no terms.
        dnn::NeuronTensor codes =
            synth.synthesizeQuant8(static_cast<int>(i));
        sim::SamplePlan plan = sim::planSample(layer.windows(), sample);
        double filters = static_cast<double>(layer.numFilters);
        for (int64_t w : plan.indices) {
            int wx = static_cast<int>(w % layer.outX());
            int wy = static_cast<int>(w / layer.outX());
            WindowStats stats =
                windowStats(layer, codes, nullptr, wx, wy);
            baseline += plan.scale * 8.0 * stats.elements * filters;
            zero_skip += plan.scale * 8.0 * stats.nonZero * filters;
            pra += plan.scale * static_cast<double>(stats.popRaw) *
                   filters;
        }
    }
    PRA_CHECK(baseline > 0.0,
                         "countNetworkTerms8: zero baseline");
    NetworkTerms8 rel;
    rel.zeroSkip = zero_skip / baseline;
    rel.pra = pra / baseline;
    return rel;
}

} // namespace models
} // namespace pra
