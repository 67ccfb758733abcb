/**
 * @file
 * Engine-registry adapter for the analytic term-count model (kind
 * "terms").
 *
 * The analytic model measures *work* (single-bit terms, the paper's
 * Figure 2 metric), not timed cycles; the adapter reports the selected
 * series' term count in both the cycles and effectualTerms fields, so
 * ratios between two "terms" engines reproduce the paper's relative
 * work-reduction numbers (e.g. terms:series=dadn over
 * terms:series=pra-red).
 *
 * Knobs:
 *   series=dadn|zn|cvn|stripes|pra|pra-red   (default pra-red)
 *     dadn     16 terms per product (bit-parallel baseline)
 *     zn       ideal zero-neuron skipping
 *     cvn      Cnvlutin (no skipping in the first layer)
 *     stripes  p terms per product at profiled precision p
 *     pra      essential bits of the raw neurons
 *     pra-red  essential bits after Section V-F trimming
 */

#pragma once

#include "models/analytic/term_count.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** The analytic term-count model behind the Engine interface. */
class TermCountEngine : public sim::Engine
{
  public:
    enum class Series { Dadn, Zn, Cvn, Stripes, PraRaw, PraTrimmed };

    explicit TermCountEngine(const sim::EngineKnobs &knobs);

    std::string name() const override;

    /** PRA-red reads the trimmed stream; every other series the raw. */
    sim::InputStream inputStream() const override;

    /**
     * Term counts of one layer, from the brick planes of the one
     * stream inputStream() names. The CVN image-input rule goes by
     * dnn::LayerSpec::readsImage() without an index, so it needs the
     * layer's ordinal (every zoo network stamps them).
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

    Series series() const { return series_; }

  private:
    Series series_ = Series::PraTrimmed;
};

} // namespace models
} // namespace pra

