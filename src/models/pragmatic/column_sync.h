/**
 * @file
 * Per-column neuron lane synchronization with synapse set registers
 * (paper Section V-E, Figure 8).
 *
 * Each PIP column advances through the synapse-set stream
 * independently, bounded by three structural constraints:
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
 * The implementation is an event-ordered sweep over global set
 * indices: all times needed for set g are known once sets < g are
 * placed, so no event queue is required.
 */

#pragma once

#include "dnn/layer_spec.h"
#include "models/pragmatic/pragmatic_config.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"

namespace pra {
namespace models {

/**
 * Simulate one layer under per-column synchronization
 * (firstStageBits, ssrCount and modelNmStalls of @p config apply),
 * resolving brick costs through the workload's planes. Column sync
 * carries SSR/dispatcher state across the whole pallet stream, so it
 * does not block-split (no InnerExecutor parameter).
 */
sim::LayerResult
simulateLayerColumnSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample);

} // namespace models
} // namespace pra

