#include "models/analytic/term_count_engine.h"

#include <algorithm>

#include "dnn/activation_synth.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

const char *
seriesLabel(TermCountEngine::Series series)
{
    switch (series) {
      case TermCountEngine::Series::Dadn: return "dadn";
      case TermCountEngine::Series::Zn: return "zn";
      case TermCountEngine::Series::Cvn: return "cvn";
      case TermCountEngine::Series::Stripes: return "stripes";
      case TermCountEngine::Series::PraRaw: return "pra";
      case TermCountEngine::Series::PraTrimmed: return "pra-red";
    }
    util::fatal("seriesLabel: bad series");
}

double
selectSeries(const LayerTermCounts &counts,
             TermCountEngine::Series series)
{
    switch (series) {
      case TermCountEngine::Series::Dadn: return counts.dadn;
      case TermCountEngine::Series::Zn: return counts.zn;
      case TermCountEngine::Series::Cvn: return counts.cvn;
      case TermCountEngine::Series::Stripes: return counts.stripes;
      case TermCountEngine::Series::PraRaw: return counts.praRaw;
      case TermCountEngine::Series::PraTrimmed:
        return counts.praTrimmed;
    }
    util::fatal("selectSeries: bad series");
}

/**
 * Re-derive the trimmed stream from the raw one: AND with the layer's
 * precision-window mask at the synthesis anchor (the same formula
 * calibrateFixed16 uses), matching synthesizeFixed16Trimmed().
 */
dnn::NeuronTensor
trimStream(const dnn::LayerSpec &layer,
           const dnn::NeuronTensor &raw)
{
    uint16_t mask =
        layer.precisionWindow(dnn::synthesisAnchor(layer)).mask();
    dnn::NeuronTensor trimmed = raw;
    for (auto &value : trimmed.flat())
        value = static_cast<uint16_t>(value & mask);
    return trimmed;
}

} // namespace

TermCountEngine::TermCountEngine(const sim::EngineKnobs &knobs)
{
    sim::requireKnownKnobs("terms", knobs, {"series"});
    std::string series = sim::knobString(knobs, "series", "pra-red");
    if (series == "dadn")
        series_ = Series::Dadn;
    else if (series == "zn")
        series_ = Series::Zn;
    else if (series == "cvn")
        series_ = Series::Cvn;
    else if (series == "stripes")
        series_ = Series::Stripes;
    else if (series == "pra")
        series_ = Series::PraRaw;
    else if (series == "pra-red")
        series_ = Series::PraTrimmed;
    else
        util::fatal("terms: unknown series '" + series + "'");
}

std::string
TermCountEngine::name() const
{
    return std::string("terms-") + seriesLabel(series_);
}

sim::LayerResult
TermCountEngine::resultFromCounts(const dnn::LayerSpec &layer,
                                  const LayerTermCounts &counts) const
{
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.engineName = name();
    lr.cycles = selectSeries(counts, series_);
    lr.effectualTerms = lr.cycles;
    return lr;
}

sim::LayerResult
TermCountEngine::layerTerms(const dnn::LayerSpec &layer,
                            const dnn::NeuronTensor &raw,
                            bool is_first_layer,
                            const sim::SampleSpec &sample) const
{
    return resultFromCounts(
        layer, countLayerTerms16(layer, raw, trimStream(layer, raw),
                                 is_first_layer, sample));
}

sim::LayerResult
TermCountEngine::simulateLayer(const dnn::LayerSpec &layer,
                               const sim::LayerWorkload &workload,
                               const sim::AccelConfig &accel,
                               const sim::SampleSpec &sample,
                               const util::InnerExecutor &exec) const
{
    (void)accel; // Term counts are machine-shape independent.
    (void)exec;
    return layerTerms(layer, workload.tensor(), false, sample);
}

sim::NetworkResult
TermCountEngine::runNetwork(const dnn::Network &network,
                            const sim::WorkloadSource &source,
                            const sim::AccelConfig &accel,
                            const sim::SampleSpec &sample,
                            const util::InnerExecutor &exec) const
{
    (void)accel;
    (void)exec; // Term counting is already brick-granular and cheap.
    sim::NetworkResult result;
    result.networkName = network.name;
    result.engineName = name();
    result.layers.reserve(network.layers.size());
    for (size_t i = 0; i < network.layers.size(); i++) {
        // Pool layers are structural; nothing to count.
        if (!network.layers[i].priced())
            continue;
        // The trimmed view is the synthesizer's own trimmed stream —
        // bit-identical to masking the raw one (see layerTerms) and
        // shared with every other consumer through the cache.
        std::shared_ptr<const sim::LayerWorkload> raw = source.layer(
            static_cast<int>(i), sim::InputStream::Fixed16Raw);
        std::shared_ptr<const sim::LayerWorkload> trimmed =
            source.layer(static_cast<int>(i),
                         sim::InputStream::Fixed16Trimmed);
        // The first-layer rule (CVN cannot skip the dense image
        // input, Section II-B) only applies when the network starts
        // at its convolutional front; an FC-selected network's first
        // layer consumes pooled ReLU outputs.
        bool first_layer =
            i == 0 && network.layers[i].kind == dnn::LayerKind::Conv;
        result.layers.push_back(resultFromCounts(
            network.layers[i],
            countLayerTerms16(network.layers[i], *raw, *trimmed,
                              first_layer, sample)));
    }
    return result;
}

} // namespace models
} // namespace pra
