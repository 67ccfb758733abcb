/**
 * @file
 * Laconic cycle model: term-serial computation over the essential
 * bits of *both* operands (Sharify et al., "Laconic Deep Learning
 * Computing" — the both-operand endpoint of the oneffset family this
 * repo grows from Pragmatic).
 *
 * A Laconic PE decomposes a product into oneffset pairs: a neuron
 * with A set bits times a synapse with W set bits takes A x W
 * single-bit term cycles. Execution follows the shared
 * pass/pallet/synapse-set tiling: per synapse set, every (column,
 * lane, filter) unit multiplies its neuron brick lane against its
 * synapse lane, and the pallet advances when its slowest unit
 * finishes:
 *
 *   step(pallet, set) = max over columns, lanes of
 *       actPop(col, lane) x wgtMaxPop(set, lane)
 *
 * with the one-cycle SB-read floor every pallet-synced model shares.
 * wgtMaxPop is the per-(set, lane) maximum over *all* filters, so a
 * multi-pass layer prices every pass at the worst-case pass — a
 * deliberate (documented) upper-bound approximation that keeps the
 * weight planes pass-independent; effectual terms stay exact, since
 * wgtSumPop sums every filter's popcount:
 *
 *   terms += actPop(col, lane) x wgtSumPop(set, lane)
 *
 * summed over one pass (the sum already covers every filter, hence
 * every pass).
 *
 * Both weight factors depend on (set, lane) only and are
 * non-negative, so each reduction over columns factors exactly, in
 * integers:
 *
 *   step  = max over lanes of wgtMaxPop(set, lane) x
 *               max over columns of actPop(col, lane)
 *   terms = sum over lanes of wgtSumPop(set, lane) x
 *               sum over columns of actPop(col, lane)
 *
 * The model reduces each set's columns into a 16-lane max and a
 * 16-lane sum first, then takes one 16-lane product with the weight
 * planes. Weight popcounts come from the shared weight-side
 * planes (sim/operand_planes.h): the deterministic synthetic codes,
 * or the requantized reference weights under --activations=propagated.
 *
 * Registry kind "laconic", no knobs: the datapath is fully
 * determined by the machine geometry and the two operand streams —
 * the trimmed neuron values and the per-layer profiled-precision
 * weight codes served by the shared weight-side planes.
 */

#pragma once

#include "dnn/layer_spec.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** The Laconic accelerator's cycle model (see file comment). */
class LaconicEngine : public sim::Engine
{
  public:
    explicit LaconicEngine(const sim::EngineKnobs &knobs);

    std::string name() const override { return "Laconic"; }
    sim::InputStream inputStream() const override
    {
        return sim::InputStream::Fixed16Trimmed;
    }
    bool readsSharedWeights() const override { return true; }

    /**
     * Per-lane neuron popcounts from the workload's lane-pop plane,
     * weight popcounts from its weight planes.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;
};

} // namespace models
} // namespace pra
