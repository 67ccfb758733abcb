/**
 * @file
 * Dynamic-Stripes (DS) cycle model: Stripes' bit-serial datapath with
 * the per-layer profiled precision replaced by *runtime* per-group
 * precision detection (DNNsim's DynamicStripes: PRECISION_GRANULARITY,
 * COLUMN_REGISTERS, LEADING_BIT, and the Diffy spatial-difference
 * front end).
 *
 * Execution follows the shared pass/pallet/synapse-set walk
 * (sim/pallet_driver.h). Per synapse set, the windows of a pallet are carved
 * into groups of `groupColumns` adjacent columns; each group's
 * detector ORs the 16 lanes of every member column's neuron brick
 * (exactly the orMask plane of sim/operand_planes.h) and streams the
 * group for fixedpoint::dynamicPrecision(mask, leadingBit) cycles —
 * the span between the group's leading and trailing set bits, or
 * everything under the leading bit when only that is detected.
 *
 * Synchronization across groups:
 *  - columnRegisters == 0: lockstep — every group waits for the
 *    pallet's slowest group each set (a per-set SB read floor of one
 *    cycle applies, as in the Pragmatic tile model);
 *  - columnRegisters == R >= 1: each group run-ahead buffers up to R
 *    sets; group g may start set s only once the pallet's slowest
 *    group has finished set s - R (the register that would hold
 *    set s is recycled from it).
 *
 * Variants:
 *  - leadingBit: detect only the group's leading bit (trailing zeros
 *    still stream);
 *  - diffy: the detector sees the spatial x-difference stream
 *    |a(x, y, c) - a(x-1, y, c)| (x == 0 columns keep their raw
 *    value), shrinking magnitudes in smooth feature maps;
 *  - layerWide: degenerate static configuration — one group spanning
 *    the whole layer. With leadingBit off this is *exactly* Stripes
 *    at the profiled precision (the validation-twin identity the
 *    tests pin); with leadingBit on, the precision widens to the top
 *    of the synthesis window (profiled precision + anchor — the
 *    layer-wide worst case a leading-bit-only detector latches).
 *    Value-independent, so the engine declares no input stream;
 *    diffy and column registers don't apply.
 *
 * Effectual terms count the streamed bit-slices: per set and column,
 * (group precision) x (real channel lanes of the brick), times the
 * filter count — the DS analogue of Stripes' products() x precision.
 *
 * Registry kind "dynamic_stripes". Knobs:
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

#include "dnn/layer_spec.h"
#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Dynamic-Stripes variant knobs (see file comment). */
struct DynamicStripesConfig
{
    /** Static layer-wide precision (the Stripes twin); the runtime
     * knobs below don't apply (diffy/columnRegisters rejected). */
    bool layerWide = false;
    /** Columns per runtime precision group; must divide the
     * machine's windowsPerPallet. */
    int groupColumns = 16;
    /** Per-group run-ahead registers (0 = lockstep pallet sync). */
    int columnRegisters = 0;
    /** Detect only the leading bit (trailing zeros still stream). */
    bool leadingBit = false;
    /** Detect over the spatial-difference stream (Diffy front end). */
    bool diffy = false;
};

/** The Dynamic-Stripes cycle model (see file comment). */
class DynamicStripesEngine : public sim::Engine
{
  public:
    explicit DynamicStripesEngine(const sim::EngineKnobs &knobs);

    std::string name() const override;
    sim::InputStream inputStream() const override;

    /**
     * fatal() unless a runtime group's column count divides the
     * machine's windowsPerPallet. The layer-wide configuration runs
     * on every machine.
     */
    void checkMachine(const sim::AccelConfig &accel) const override;

    /**
     * Each brick's detector mask is the workload's orMask plane entry
     * (for Diffy, the plane of a local workload over the difference
     * stream).
     */
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
