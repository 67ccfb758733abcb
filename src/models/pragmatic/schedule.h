/**
 * @file
 * The per-brick oneffset schedule with 2-stage shifting
 * (paper Sections V-A, V-D, Figure 7b).
 *
 * A PIP column processes the 16 neurons of a brick one oneffset per
 * neuron per cycle. With 2-stage shifting the per-synapse (first
 * stage) shifters are only L bits wide; each cycle the shared column
 * control picks the minimum pending oneffset C, drives the second-
 * stage shifter with C, and every lane whose pending oneffset k
 * satisfies k - C < 2^L fires its first-stage shifter with k - C.
 * Lanes with k - C >= 2^L stall (their AND gate injects a null term).
 * L == 4 can express any difference (0..15), which is the single-
 * stage PRA of Section V-A/B; L == 0 fires only lanes whose offset
 * equals the minimum.
 *
 * The number of cycles this policy takes to drain a brick is the
 * fundamental timing quantity of the Pragmatic performance model.
 */

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace pra {
namespace models {

/** Largest supported first-stage shifter width (single-stage PRA). */
inline constexpr int kMaxFirstStageBits = 4;

/**
 * Cycles for a PIP column to drain a brick of neuron patterns with
 * first-stage shifters of @p first_stage_bits bits. An all-zero brick
 * takes 0 cycles (callers clamp to the 1-cycle set minimum).
 *
 * Guarantees (tested as properties):
 *  - result <= 16 for any input (never slower than DaDN's 16 cycles
 *    per brick-set across a pallet, paper Section V-A3);
 *  - first_stage_bits == 4 gives max(popcount) over the brick;
 *  - first_stage_bits == 0 gives the number of distinct set-bit
 *    positions across the brick;
 *  - monotonically non-increasing in first_stage_bits.
 */
int brickScheduleCycles(std::span<const uint16_t> neurons,
                        int first_stage_bits);

/**
 * A set of the intermediate first-stage widths 1..3, the ones the
 * packed brick planes cannot answer (L=0 is orPop, L=4 is maxPop):
 * bit L stands for width L.
 */
using ScheduleWidths = unsigned;

/** The one-width set {@p first_stage_bits}. */
constexpr ScheduleWidths
scheduleWidth(int first_stage_bits)
{
    return 1u << first_stage_bits;
}

/** Every intermediate width: {1, 2, 3}. */
inline constexpr ScheduleWidths kAllScheduleWidths =
    scheduleWidth(1) | scheduleWidth(2) | scheduleWidth(3);

/**
 * Batched schedule kernel: cycles for every brick of one channel-major
 * row of neurons, at every first-stage width of @p widths, in a single
 * call.
 *
 * @p row is @p columns consecutive (x) positions of @p channels
 * contiguous channel values each — exactly one y-row of a
 * NeuronTensor — and each position carves into ceil(channels / 16)
 * bricks (the last one partial when channels is not a multiple of 16;
 * missing lanes count as zero, as gathers pad them). For every width
 * L in @p widths (a non-empty subset of kAllScheduleWidths),
 * @p out[L - 1] receives columns * ceil(channels / 16) cycle counts in
 * (x, brick) order; the other spans of @p out are not touched.
 *
 * Exactly equivalent to brickScheduleCycles() per brick and width —
 * the drain loop is the same policy expressed branchlessly over the
 * brick's 16 lanes as two 8-lane vectors (a lane fires iff its lowest
 * pending oneffset falls inside the reach window above the global
 * minimum) — but
 * without the per-brick span setup, so plane builders can walk a
 * whole tensor at memory speed. Each brick is loaded once and every
 * width drains it in lock step, so the widths' dependency chains
 * overlap; a one-width set overlaps four bricks' chains instead.
 * Property-tested against the serial kernel.
 */
void scheduleCyclesRow(std::span<const uint16_t> row, int columns,
                       int channels, ScheduleWidths widths,
                       const std::array<std::span<uint8_t>, 3> &out);

/** One cycle of a schedule trace (for validation and visualization). */
struct ScheduleCycle
{
    uint8_t secondStageShift = 0; ///< C: the common stage-2 offset.
    uint16_t firedLanes = 0;      ///< Bitmask of lanes that consumed.
    /** First-stage shift amount per lane; only fired lanes are valid. */
    uint8_t firstStageShift[16] = {};
};

/** Full cycle-by-cycle schedule of one brick. */
struct ScheduleTrace
{
    std::vector<ScheduleCycle> cycles;

    int numCycles() const { return static_cast<int>(cycles.size()); }
};

/**
 * Detailed trace of the schedule brickScheduleCycles() counts; the
 * functional PIP replays this trace and tests assert the two agree.
 */
ScheduleTrace brickScheduleTrace(std::span<const uint16_t> neurons,
                                 int first_stage_bits);

} // namespace models
} // namespace pra

