/**
 * @file
 * Memory-hierarchy traffic and stall model.
 *
 * Turns a layer's geometry plus an engine's *compute* cycles into
 * stall-aware *system* cycles, without touching the engines: the
 * model is applied to a finished LayerResult/NetworkResult, so every
 * engine gets memory modeling through the same two free functions.
 *
 * ## Traffic (bytes, 16-bit words)
 *
 * Execution is pass-major (groups of tiles*filtersPerTile filters)
 * and pallet-minor (sim/tiling.h). Per layer:
 *
 *  - **on-chip** (global buffer <-> scratchpads):
 *      * ifmap: each image's input streams through the NBin-class
 *        scratchpad once per pass — inputNeurons * 2 * B * passes
 *        bytes for a batch of B images;
 *      * filters: each pass's filter slice loads once when the
 *        per-tile slice (filtersPerTile * synapsesPerFilter words)
 *        fits the weight scratchpad half — the whole batch reuses it,
 *        since execution is pass-major and image-minor, so resident
 *        filter traffic does NOT scale with B (the classic batching
 *        amortization) — and re-streams per (image, pallet) when it
 *        does not — synapses * 2 * (1 or numPallets * B) bytes;
 *      * ofmap: written back once per image — outputNeurons * 2 * B
 *        bytes.
 *  - **off-chip** (DRAM <-> global buffer): compulsory-only when the
 *    batch working set (B ifmaps + filters + B ofmaps) fits the
 *    global buffer; otherwise each ifmap is re-fetched from DRAM on
 *    every pass. Filters are consumed by exactly one pass each and
 *    shared by the whole batch, so they cross the channel once
 *    regardless of B — which is why the off-chip bytes of a batch-B
 *    run are strictly below B times the batch-1 run on any
 *    filter-heavy (FC) layer.
 *
 * ## Stalls (double-buffered fetch/compute overlap)
 *
 * The scratchpads are double-buffered: while tile step i computes,
 * step i+1's data is prefetched (the same rule CADOSys's
 * double_buffer_scratchpad_mem applies per prefetch request). With
 * steps = passes * numPallets uniform tile steps, fetch time
 * F = max(onChipBytes / gbBandwidth, offChipBytes / dramBandwidth)
 * (the two channels run in parallel) and compute time C:
 *
 *     stall = F/steps                      (cold fill of step 0)
 *           + (steps-1)/steps * max(0, F - C)   (steady state)
 *
 * so a compute-bound layer pays only the first fill, and a
 * bandwidth-bound layer degenerates to "system time = fetch time".
 * A layer is flagged bandwidth-bound when F > C. The ideal preset
 * (infinite bandwidth/capacity) has zero stalls by construction and
 * compulsory-only off-chip traffic.
 *
 * Everything is derived from full-layer geometry and the (possibly
 * sampled) compute-cycle estimate in one fixed evaluation order, so
 * results are bit-identical across thread counts and cache modes.
 */

#pragma once

#include "dnn/layer_spec.h"
#include "dnn/network.h"
#include "sim/accel_config.h"
#include "sim/layer_result.h"
#include "sim/memory/memory_config.h"

namespace pra {
namespace sim {

/** Per-layer memory traffic, in bytes (see file comment). */
struct LayerTraffic
{
    double ifmapBytes = 0.0;  ///< Batch input bytes (unique * B).
    double filterBytes = 0.0; ///< Unique synapse bytes (shared by B).
    double ofmapBytes = 0.0;  ///< Batch output bytes (unique * B).

    double onChipBytes = 0.0;  ///< GB <-> scratchpad traffic.
    double offChipBytes = 0.0; ///< DRAM <-> GB traffic.

    /** Uniform double-buffer tile steps (passes * pallets * B). */
    double tileSteps = 1.0;

    /** True when the working set fits the global buffer (or ideal). */
    bool fitsGlobalBuffer = false;
    /** True when a pass's per-tile filter slice fits the weight spad. */
    bool weightsResident = false;
};

/**
 * Traffic of a batch of @p batch images (>= 1) of @p layer under
 * @p accel and @p memory (which must be enabled and valid; panic
 * otherwise). Pool layers carry no priced traffic and must not be
 * passed here. batch == 1 reproduces the historical single-image
 * traffic exactly (every batch factor is a multiply by 1.0).
 */
LayerTraffic layerTraffic(const dnn::LayerSpec &layer,
                          const AccelConfig &accel,
                          const MemoryConfig &memory, int batch = 1);

/**
 * Stall cycles of the overlap rule (file comment) for @p traffic
 * against @p compute_cycles. Zero under an ideal config.
 */
double memoryStallCycles(const LayerTraffic &traffic,
                         double compute_cycles,
                         const MemoryConfig &memory);

/**
 * Fill @p result's memory columns (onChipBytes, offChipBytes,
 * memStallCycles, bandwidthBound, memoryModeled) from @p layer's
 * traffic — at the result's own batchImages — and the result's
 * per-batch compute cycles. No-op when accel.memory is disabled.
 */
void applyMemoryModel(const dnn::LayerSpec &layer,
                      const AccelConfig &accel, LayerResult &result);

/**
 * Apply the model to every priced layer of @p network, in network
 * order. @p result must hold exactly one LayerResult per priced
 * layer, in order (what every engine's runNetwork produces); layer
 * names are cross-checked. No-op when accel.memory is disabled.
 */
void applyMemoryModel(const dnn::Network &network,
                      const AccelConfig &accel, NetworkResult &result);

} // namespace sim
} // namespace pra

