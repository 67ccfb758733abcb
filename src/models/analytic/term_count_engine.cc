#include "models/analytic/term_count_engine.h"

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

sim::InputStream
TermCountEngine::inputStream() const
{
    return series_ == Series::PraTrimmed
               ? sim::InputStream::Fixed16Trimmed
               : sim::InputStream::Fixed16Raw;
}

sim::LayerResult
TermCountEngine::simulateLayer(const dnn::LayerSpec &layer,
                               const sim::LayerWorkload &workload,
                               const sim::AccelConfig &accel,
                               const sim::SampleSpec &sample,
                               const util::InnerExecutor &exec) const
{
    (void)accel; // Term counts are machine-shape independent.
    (void)exec;  // Term counting is already brick-granular and cheap.
    LayerTermCounts counts = countLayerTerms16(
        layer, workload, layer.readsImage(), sample);
    sim::LayerResult lr;
    lr.layerName = layer.name;
    lr.cycles = selectSeries(counts, series_);
    lr.effectualTerms = lr.cycles;
    return lr;
}

} // namespace models
} // namespace pra
