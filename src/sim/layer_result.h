/**
 * @file
 * Per-layer and per-network simulation results.
 *
 * Cycle counts are stored as doubles because sampled simulation scales
 * integer step counts by a rational factor; totals over full networks
 * are far below the 2^53 precision limit.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pra {
namespace sim {

/**
 * Measured outcome of simulating one layer on one engine.
 *
 * Column semantics (these are the CSV columns writeSweepCsv emits,
 * in order):
 *
 *  - cycles: total *compute* execution cycles, NM stalls included
 *    (the "cycles" the paper's speedups compare). For the analytic
 *    terms engines this holds the selected term count, not cycles.
 *  - nmStallCycles: the subset of cycles lost waiting on Neuron
 *    Memory row fetches (sim/nm_model.h); engines that do not model
 *    NM stalls report 0.
 *  - effectualTerms: non-zero oneffset terms processed (for DaDN:
 *    all terms — it processes everything).
 *  - sbReadSteps: synapse-buffer read operations (one per pallet
 *    step; identical across designs by construction, Section V-E).
 *  - sampleScale: the sampling scale factor applied to the counts
 *    above (1.0 for exhaustive runs).
 *
 * Memory-hierarchy columns — filled by sim/memory/memory_model.h
 * only when a sweep runs with --memory enabled (memoryModeled gates
 * the extra CSV columns so default output stays byte-identical):
 *
 *  - onChipBytes: global-buffer <-> scratchpad traffic.
 *  - offChipBytes: DRAM <-> global-buffer traffic.
 *  - memStallCycles: stall cycles from the double-buffered
 *    fetch/compute overlap rule; systemCycles() adds them to the
 *    compute cycles.
 *  - bandwidthBound: true when the layer's fetch time exceeds its
 *    compute time (memory, not the NFU, sets its system time).
 */
struct LayerResult
{
    std::string layerName;

    double cycles = 0.0;         ///< Compute cycles, NM stalls incl.
    double effectualTerms = 0.0; ///< Non-zero terms processed (scaled).
    double nmStallCycles = 0.0;  ///< Cycles lost waiting on NM.
    double sbReadSteps = 0.0;    ///< Synapse-buffer read operations.
    double sampleScale = 1.0;    ///< Applied sampling scale factor.

    /**
     * Images this result covers: 1 for the historical single-image
     * run, B for a batch aggregate (accumulateBatchImage), where the
     * count columns above are per-*batch* totals (the sum over the B
     * per-image simulations). cyclesPerImage() recovers the
     * per-image view; a batch of 1 is byte-identical to a plain run.
     */
    int batchImages = 1;

    bool memoryModeled = false;  ///< Memory columns below are live.
    double onChipBytes = 0.0;    ///< GB <-> scratchpad traffic.
    double offChipBytes = 0.0;   ///< DRAM traffic.
    double memStallCycles = 0.0; ///< Fetch/compute-overlap stalls.
    bool bandwidthBound = false; ///< Fetch time exceeds compute time.

    /** Compute cycles plus memory stalls (== cycles when off). */
    double systemCycles() const { return cycles + memStallCycles; }

    /** Per-image compute cycles (== cycles at batch 1). */
    double
    cyclesPerImage() const
    {
        return cycles / static_cast<double>(batchImages);
    }
};

/** Results for all layers of a network on one engine. */
struct NetworkResult
{
    std::string networkName;
    std::string engineName;
    std::vector<LayerResult> layers;

    double totalCycles() const;
    double totalStalls() const;

    /** Sum of layer systemCycles() (== totalCycles() memory-off). */
    double totalSystemCycles() const;
    double totalOnChipBytes() const;
    double totalOffChipBytes() const;
    double totalMemStalls() const;

    /** True when any layer carries live memory columns. */
    bool memoryModeled() const;

    /** Images per batch (layers agree by construction; 1 if empty). */
    int batchImages() const;

    /** True when this result aggregates more than one image. */
    bool batched() const { return batchImages() > 1; }

    /**
     * Execution-time speedup of this result relative to @p baseline
     * (baseline cycles / these cycles), the paper's performance
     * metric. Uses system cycles, so with memory modeling enabled
     * this is the *system* speedup; with it off (or ideal, which has
     * zero stalls) it is exactly the compute-only ratio.
     */
    double speedupOver(const NetworkResult &baseline) const;
};

/** Geometric mean of a list of per-network speedups ("geo" columns). */
double geometricMean(const std::vector<double> &values);

/**
 * Accumulate one further image's network result into a batch
 * aggregate: layer-wise sums of cycles, effectualTerms, nmStallCycles
 * and sbReadSteps. Both results must cover the same layers on the
 * same engine with the same sampling scale, and must not carry
 * memory columns yet (the memory model prices the *batch*, post-hoc,
 * via applyMemoryModel — per-image memory columns would double count
 * the shared filter traffic). batchImages is left for the caller
 * (the sweep fold or the serving cost curve) to stamp once the
 * batch is complete.
 */
void accumulateBatchImage(NetworkResult &total,
                          const NetworkResult &image);

} // namespace sim
} // namespace pra

