/**
 * @file
 * Pragmatic cycle model, registry kinds "pragmatic" and
 * "pragmatic-col".
 *
 * "pragmatic" is the pallet-synchronized design (paper Sections
 * V-A3, V-A4, V-B): all 16 PIP columns advance to the next synapse
 * set together, so a set costs the maximum schedule length over the
 * pallet's 16 bricks (clamped to at least the one cycle the SB read
 * takes). NM fetch of the next step overlaps with processing of the
 * current one; the residue shows up as stall cycles (Section V-A4).
 * Pallets are independent, so the walk splits into blocks across an
 * InnerExecutor (sim::PalletDriver, sim/pallet_driver.h).
 *
 * "pragmatic-col" is the per-column design with synapse set
 * registers (Section V-E, Figure 8). Each PIP column advances through
 * the synapse-set stream independently, bounded by three structural
 * constraints:
 *
 *  1. one SB read per cycle (single port, one shared bus);
 *  2. a pool of x synapse set registers (SSRs): a set read from SB
 *     stays in an SSR until *all* columns have copied it into their
 *     PIP synapse registers, so the lead column can run at most x
 *     sets ahead of the slowest column (x == 0 models the ideal,
 *     infinite-register design, "perCol-ideal");
 *  3. the dispatcher double-buffers pallets: a column may only enter
 *     pallet p once its neuron bricks arrived from NM, and the fetch
 *     of pallet p cannot complete before every column drained pallet
 *     p - 2 (Section V-E: "a two pallet buffer in the dispatcher is
 *     all that is needed").
 *
 * Column sync is an event-ordered sweep over global set indices: all
 * times needed for set g are known once sets < g are placed, so no
 * event queue is required. It carries SSR/dispatcher state across
 * the whole pallet stream, so it does not block-split.
 *
 * Both schemes resolve each brick's schedule length and term count
 * from the workload's planes through BrickCostModel (brick_cost.h).
 *
 * Knobs:
 *   bits=L      first-stage shifter width, 0..4      (default 2)
 *   trim=0|1    Section V-F software trimming        (default 1)
 *   repr=fixed16|quant8  neuron representation       (default fixed16)
 *   nmstalls=0|1  model dispatcher/NM fetch overlap  (default 1)
 *   ssr=N       ("pragmatic-col" only) synapse set registers;
 *               0 models the infinite-register ideal (default 1)
 */

#pragma once

#include <string>

#include "sim/engine.h"
#include "sim/engine_registry.h"

namespace pra {
namespace models {

/** Neuron storage representation (paper Sections VI-B vs VI-F). */
enum class Representation { Fixed16, Quant8 };

/** Neuron lane synchronization scheme (Sections V-A4 vs V-E). */
enum class SyncScheme { Pallet, PerColumn };

/** A full Pragmatic design point. */
struct PragmaticConfig
{
    int firstStageBits = 2;      ///< L (0..4); 4 == single-stage.
    SyncScheme sync = SyncScheme::Pallet;
    int ssrCount = 1;            ///< Per-column SSRs; 0 = ideal.
    bool softwareTrim = true;    ///< Section V-F precision masking.
    Representation representation = Representation::Fixed16;
    bool modelNmStalls = true;   ///< Model dispatcher/NM fetch overlap.

    /** Short label, e.g. "PRA-2b" or "PRA-2b-1R". */
    std::string label() const;
};

/** Pragmatic under either sync scheme (see file comment). */
class PragmaticEngine : public sim::Engine
{
  public:
    /** @p sync selects which registry kind the knobs configure. */
    PragmaticEngine(SyncScheme sync, const sim::EngineKnobs &knobs);

    std::string name() const override { return config_.label(); }
    sim::InputStream inputStream() const override;

    /**
     * {L} at the intermediate widths L = 1..3; L = 0 and 4 read the
     * brick planes (see brick_cost.h).
     */
    ScheduleWidths cycleWidths() const override;

    /**
     * Prices the layer under the configured sync scheme, off the
     * workload's shared brick planes, and (for pallet sync, whose
     * pallets are independent) splits it across @p exec.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

  private:
    PragmaticConfig config_;
};

} // namespace models
} // namespace pra
