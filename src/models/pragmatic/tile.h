/**
 * @file
 * Pragmatic tile with pallet-level neuron lane synchronization
 * (paper Sections V-A3, V-A4, V-B).
 *
 * Under pallet synchronization all 16 PIP columns advance to the next
 * synapse set together: a set costs the maximum schedule length over
 * the pallet's 16 bricks (clamped to at least the one cycle the SB
 * read takes). NM fetch of the next step overlaps with processing of
 * the current one; the residue shows up as stall cycles
 * (Section V-A4).
 *
 * The model consumes the workload's per-brick planes through
 * BrickCostModel and can split the sampled pallets into blocks across
 * an InnerExecutor; the walk and its block split are
 * sim::PalletDriver's (sim/pallet_driver.h).
 */

#pragma once

#include "dnn/layer_spec.h"
#include "models/pragmatic/pragmatic_config.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/sampling.h"
#include "sim/workload_cache.h"
#include "util/thread_pool.h"

namespace pra {
namespace models {

/**
 * Simulate one layer under pallet synchronization.
 *
 * @param layer    layer geometry.
 * @param workload the layer's input neuron patterns (16-bit fixed
 *                 point or 8-bit quantized codes; timing sees only
 *                 bits) and their planes.
 * @param accel    machine configuration.
 * @param config   datapath configuration (firstStageBits and
 *                 modelNmStalls apply here).
 * @param sample   pallet sampling policy.
 * @param exec     splits the sampled pallets into blocks.
 */
sim::LayerResult
simulateLayerPalletSync(const dnn::LayerSpec &layer,
                        const sim::LayerWorkload &workload,
                        const sim::AccelConfig &accel,
                        const PragmaticConfig &config,
                        const sim::SampleSpec &sample,
                        const util::InnerExecutor &exec);

} // namespace models
} // namespace pra

