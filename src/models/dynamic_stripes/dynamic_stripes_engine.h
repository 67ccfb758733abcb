/**
 * @file
 * Engine-registry adapter for Dynamic-Stripes (kind "dynamic_stripes").
 *
 * Knobs:
 *   granularity=N|layer
 *                columns per runtime precision-detection group
 *                (default 16); must be a positive divisor of the
 *                machine's windowsPerPallet. "layer" selects the
 *                static layer-wide configuration — exactly Stripes at
 *                the profiled precision — which is value-independent
 *                and rejects diffy and column registers.
 *   column-regs=N
 *                per-group run-ahead registers (default 0 = lockstep).
 *   leading-bit=0|1
 *                detect only the group's leading bit (default 0).
 *   diffy=0|1    detect over the spatial-difference stream (default 0).
 */

#pragma once

#include "models/dynamic_stripes/dynamic_stripes.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Dynamic-Stripes behind the uniform Engine interface. */
class DynamicStripesEngine : public sim::Engine
{
  public:
    explicit DynamicStripesEngine(const sim::EngineKnobs &knobs);

    std::string name() const override;
    sim::InputStream inputStream() const override;
    void checkMachine(const sim::AccelConfig &accel) const override
    {
        checkDynamicStripesMachine(config_, accel);
    }

    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

  private:
    DynamicStripesConfig config_;
};

} // namespace models
} // namespace pra
