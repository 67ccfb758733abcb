/**
 * @file
 * The unified simulation-engine interface.
 *
 * Every cycle/term model in src/models is one class implementing
 * this interface, so that sweeps, benches and tools can treat "a
 * thing that simulates a layer" uniformly: DaDN and Stripes
 * (value-independent baselines), Dynamic-Stripes, the Pragmatic
 * pallet- and column-sync engines, Laconic, and the analytic
 * term-count model. Each class parses its knobs in its constructor,
 * names itself and prices a layer in its model's own .h/.cc pair; an
 * engine is identified by its registry *kind* (e.g. "pragmatic") and
 * a variant *name* derived from its knobs (e.g. "PRA-2b-1R"), which
 * runNetwork stamps once on the NetworkResult.
 *
 * Engines consume immutable LayerWorkload views (stream tensor plus
 * lazily built operand planes) handed out by a WorkloadSource, so a
 * sweep can share one synthesized workload across every grid cell,
 * and may split big layers into deterministic blocks across an
 * InnerExecutor. The workload simulateLayer is the one entry point an
 * engine implements (runNetwork is the shared, non-virtual layer
 * loop around it); a caller holding a bare tensor wraps it in
 * LayerWorkload(tensor).
 */

#pragma once

#include <string>

#include "dnn/layer_spec.h"
#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {

/** One simulation backend behind a uniform layer/network API. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /**
     * Variant label embedded in results, e.g. "PRA-2b". Distinct
     * knob settings of one kind produce distinct names.
     */
    virtual std::string name() const = 0;

    /** The neuron stream simulateLayer expects in its workload. */
    virtual InputStream inputStream() const { return InputStream::None; }

    /**
     * Whether simulateLayer reads its workload's shared weight planes
     * (LayerWorkload::weightPlanes). A sweep builds the planes ahead
     * of the cells only for engines that say so; a wrong answer costs
     * time, never a result bit, and the engine contract test holds
     * every kind to it.
     */
    virtual bool readsSharedWeights() const { return false; }

    /**
     * The schedule widths whose cycle planes
     * (LayerWorkload::cyclePlane) simulateLayer reads while the
     * planes are enabled. A cached grid builds each network's set in
     * one pass (WorkloadCache::planCycleWidths); like
     * readsSharedWeights, a wrong answer costs time, never a result
     * bit, and the engine contract test holds every kind to it.
     */
    virtual models::ScheduleWidths cycleWidths() const { return 0; }

    /**
     * Reject, through util::fatal, a machine this engine cannot
     * price. Sweeps call it once per selection on the calling thread
     * before any pass starts, so a bad pairing exits once instead of
     * from several workers at once. The default accepts every
     * machine.
     */
    virtual void checkMachine(const AccelConfig &accel) const
    {
        (void)accel;
    }

    /**
     * Simulate one layer from a workload view whose tensor() carries
     * the stream announced by inputStream() (empty for
     * value-independent engines), optionally splitting it into
     * deterministic blocks across @p exec; the result must not depend
     * on the executor. The returned LayerResult has layerName filled
     * in.
     */
    virtual LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const LayerWorkload &workload, const AccelConfig &accel,
                  const SampleSpec &sample,
                  const util::InnerExecutor &exec) const = 0;

    /**
     * Simulate a whole network on the workloads of @p source: the
     * one network loop. It calls simulateLayer on the layers in
     * order, pulling each layer's inputStream() view from the
     * source; structural pool layers (never priced by any engine)
     * are skipped, so results contain one entry per *priced* layer.
     * Per-layer context an engine needs travels on the LayerSpec
     * (e.g. LayerSpec::readsImage for the CVN first-layer rule).
     */
    NetworkResult
    runNetwork(const dnn::Network &network, const WorkloadSource &source,
               const AccelConfig &accel, const SampleSpec &sample,
               const util::InnerExecutor &exec) const;
};

} // namespace sim
} // namespace pra

