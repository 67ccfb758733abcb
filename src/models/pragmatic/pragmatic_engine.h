/**
 * @file
 * Engine-registry adapters for Pragmatic (kinds "pragmatic" and
 * "pragmatic-col").
 *
 * "pragmatic" is the pallet-synchronized design of Sections V-A4/V-B;
 * "pragmatic-col" the per-column design of Section V-E. Knobs:
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
    bool modelNmStalls = true;

    /** Short label, e.g. "PRA-2b" or "PRA-2b-1R". */
    std::string label() const;
};

/** Pragmatic (either sync scheme) behind the Engine interface. */
class PragmaticEngine : public sim::Engine
{
  public:
    /** @p sync selects which registry kind the knobs configure. */
    PragmaticEngine(SyncScheme sync, const sim::EngineKnobs &knobs);

    std::string kind() const override;
    std::string name() const override { return config_.label(); }
    sim::InputStream inputStream() const override;

    /**
     * Prices the layer off the workload's shared brick planes and
     * (for pallet sync, whose pallets are independent) splits it
     * across @p exec. Bit-identical to the plane-free tensor kernels
     * simulateLayerPalletSync / simulateLayerColumnSync.
     */
    sim::LayerResult
    simulateLayer(const dnn::LayerSpec &layer,
                  const sim::LayerWorkload &workload,
                  const sim::AccelConfig &accel,
                  const sim::SampleSpec &sample,
                  const util::InnerExecutor &exec) const override;

    const PragmaticConfig &config() const { return config_; }

  private:
    PragmaticConfig config_;
};

} // namespace models
} // namespace pra

