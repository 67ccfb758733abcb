#include "models/pragmatic/schedule.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

void
checkArgs(std::span<const uint16_t> neurons, int first_stage_bits)
{
    PRA_CHECK(neurons.size() <= 16,
                         "brick schedule: more than 16 lanes");
    PRA_CHECK(first_stage_bits >= 0 &&
                             first_stage_bits <= kMaxFirstStageBits,
                         "brick schedule: bad first-stage width");
}

} // namespace

int
brickScheduleCycles(std::span<const uint16_t> neurons,
                    int first_stage_bits)
{
    checkArgs(neurons, first_stage_bits);
    // Pending set-bits per lane; a lane is done when its word is 0.
    uint16_t pending[16] = {};
    uint32_t remaining = 0;
    for (size_t lane = 0; lane < neurons.size(); lane++) {
        pending[lane] = neurons[lane];
        remaining |= neurons[lane];
    }
    if (remaining == 0)
        return 0;

    const int reach = 1 << first_stage_bits;
    int cycles = 0;
    while (true) {
        // The column control compares pending oneffsets and picks the
        // minimum; OR-ing pending words finds the global minimum set
        // bit in O(1).
        uint16_t any = 0;
        for (size_t lane = 0; lane < neurons.size(); lane++)
            any |= pending[lane];
        if (any == 0)
            break;
        int min_offset = std::countr_zero(any);
        cycles++;
        // Every lane whose next oneffset is within the first-stage
        // reach consumes it this cycle.
        for (size_t lane = 0; lane < neurons.size(); lane++) {
            uint16_t w = pending[lane];
            if (w == 0)
                continue;
            int k = std::countr_zero(w);
            if (k - min_offset < reach)
                pending[lane] = static_cast<uint16_t>(w & (w - 1));
        }
    }
    PRA_CHECK(cycles <= 16,
                         "brick schedule exceeded 16 cycles");
    return cycles;
}

namespace {

/**
 * Eight 16-bit lanes, half a brick: one 128-bit register at the
 * baseline ISA, so each step below is a handful of vector operations
 * instead of 16 scalar lane updates.
 */
using HalfBrick = uint16_t __attribute__((vector_size(16)));
using HalfBrickWords = uint64_t __attribute__((vector_size(16)));

/** The OR of a brick's 16 lanes. */
inline uint32_t
orLanes(HalfBrick lo, HalfBrick hi)
{
    const HalfBrickWords words = std::bit_cast<HalfBrickWords>(lo | hi);
    uint64_t x = words[0] | words[1];
    x |= x >> 32;
    x |= x >> 16;
    return static_cast<uint32_t>(x & 0xffff);
}

/**
 * One brick draining at first-stage width L: its pending oneffsets
 * per lane (missing lanes stay zero and never fire, matching the zero
 * padding of gatherBrick()), their OR, and the cycles spent so far.
 */
template <int L> struct BrickDrain
{
    /** Bits reachable above the second-stage minimum: 2^L ones. */
    static constexpr uint32_t kReachOnes = (1u << (1 << L)) - 1;

    HalfBrick lo{}, hi{};
    uint32_t any = 0;
    int cycles = 0;

    void
    load(HalfBrick brick_lo, HalfBrick brick_hi, uint32_t all)
    {
        lo = brick_lo;
        hi = brick_hi;
        any = all;
        cycles = 0;
    }

    /**
     * One cycle. The second stage drives the global minimum offset;
     * a lane consumes its lowest pending oneffset iff it lies inside
     * the first-stage window [min, min + 2^L). w & -w isolates that
     * bit and the masked subtract clears it only when in reach — no
     * per-lane branch. A drained brick (any == 0) has nothing
     * pending, so nothing fires and its count stops; OR-ing in bit 16
     * keeps the window shift defined there.
     */
    void
    step()
    {
        const auto window = static_cast<uint16_t>(
            kReachOnes << std::countr_zero(any | 0x10000u));
        cycles += any != 0;
        const HalfBrick reach = HalfBrick{} + window;
        lo -= (lo & -lo) & reach;
        hi -= (hi & -hi) & reach;
        any = orLanes(lo, hi);
    }
};

/** One brick draining at every width of the set W. */
template <ScheduleWidths W> struct BrickDrains
{
    static constexpr bool k1 = (W & scheduleWidth(1)) != 0;
    static constexpr bool k2 = (W & scheduleWidth(2)) != 0;
    static constexpr bool k3 = (W & scheduleWidth(3)) != 0;

    BrickDrain<1> d1;
    BrickDrain<2> d2;
    BrickDrain<3> d3;

    /**
     * Load the @p lanes (1..16) channels at @p from, zero-padded to
     * 16; returns their OR.
     */
    uint32_t
    load(const uint16_t *from, int lanes)
    {
        uint16_t brick[16] = {};
        std::copy(from, from + lanes, brick);
        HalfBrick lo{}, hi{};
        std::memcpy(&lo, brick, sizeof(lo));
        std::memcpy(&hi, brick + 8, sizeof(hi));
        const uint32_t any = orLanes(lo, hi);
        if constexpr (k1)
            d1.load(lo, hi, any);
        if constexpr (k2)
            d2.load(lo, hi, any);
        if constexpr (k3)
            d3.load(lo, hi, any);
        return any;
    }

    /** One cycle at every width; returns what is still pending. */
    uint32_t
    step()
    {
        uint32_t any = 0;
        if constexpr (k1) {
            d1.step();
            any |= d1.any;
        }
        if constexpr (k2) {
            d2.step();
            any |= d2.any;
        }
        if constexpr (k3) {
            d3.step();
            any |= d3.any;
        }
        return any;
    }

    /** Write each width's count to brick @p pos of its plane. */
    void
    store(uint8_t *const out[3], size_t pos) const
    {
        PRA_CHECK((k1 ? d1.cycles : 0) <= 16 &&
                      (k2 ? d2.cycles : 0) <= 16 &&
                      (k3 ? d3.cycles : 0) <= 16,
                  "schedule row exceeded 16 cycles");
        if constexpr (k1)
            out[0][pos] = static_cast<uint8_t>(d1.cycles);
        if constexpr (k2)
            out[1][pos] = static_cast<uint8_t>(d2.cycles);
        if constexpr (k3)
            out[2][pos] = static_cast<uint8_t>(d3.cycles);
    }
};

/**
 * Bricks drained in lock step. A one-width set has one short
 * dependency chain per step (reduce, count trailing zeros, shift,
 * broadcast), so four bricks overlap theirs; a set of several widths
 * already overlaps one chain per width, and more bricks bought
 * nothing there.
 */
template <ScheduleWidths W>
inline constexpr size_t kBricksInFlight = (W & (W - 1)) == 0 ? 4 : 1;

/**
 * scheduleCyclesRow for the width set W: each brick is loaded once
 * and every width of W drains it, in lock step with the other bricks
 * in flight, until all are done. A drained brick fires nothing, so
 * the empty (all-zero) slots of the row's last group cost steps, not
 * counts.
 */
template <ScheduleWidths W>
void
drainRow(const uint16_t *row, int columns, int channels,
         uint8_t *const out[3])
{
    constexpr size_t kInFlight = kBricksInFlight<W>;
    const size_t bricks =
        static_cast<size_t>(columns) * ((channels + 15) / 16);
    // The next brick's first channel: `base` within column `column`.
    const uint16_t *column = row;
    int base = 0;
    for (size_t first = 0; first < bricks; first += kInFlight) {
        BrickDrains<W> drains[kInFlight];
        uint32_t any = 0;
        for (size_t j = 0; j < kInFlight && first + j < bricks; j++) {
            any |= drains[j].load(column + base,
                                  std::min(16, channels - base));
            base += 16;
            if (base >= channels) {
                base = 0;
                column += channels;
            }
        }
        while (any != 0) {
            any = 0;
            for (BrickDrains<W> &drain : drains)
                any |= drain.step();
        }
        for (size_t j = 0; j < kInFlight && first + j < bricks; j++)
            drains[j].store(out, first + j);
    }
}

using RowKernel = void (*)(const uint16_t *, int, int, uint8_t *const[3]);

/** drainRow of every width set, indexed by the set's bits >> 1. */
constexpr RowKernel kRowKernels[] = {
    nullptr,      drainRow<2>,  drainRow<4>,  drainRow<6>,
    drainRow<8>,  drainRow<10>, drainRow<12>, drainRow<14>};

} // namespace

void
scheduleCyclesRow(std::span<const uint16_t> row, int columns,
                  int channels, ScheduleWidths widths,
                  const std::array<std::span<uint8_t>, 3> &out)
{
    PRA_CHECK(columns > 0 && channels > 0, "schedule row: empty row");
    PRA_CHECK(widths != 0 && (widths & ~kAllScheduleWidths) == 0,
              "schedule row: widths must be a non-empty set of the "
              "first-stage widths 1..3");
    PRA_CHECK(row.size() == static_cast<size_t>(columns) * channels,
              "schedule row: row extent mismatch");
    const size_t bricks =
        static_cast<size_t>(columns) * ((channels + 15) / 16);
    uint8_t *planes[3] = {};
    for (int l = 1; l <= 3; l++) {
        if (!(widths & scheduleWidth(l)))
            continue;
        PRA_CHECK(out[l - 1].size() == bricks,
                  "schedule row: output extent mismatch");
        planes[l - 1] = out[l - 1].data();
    }
    kRowKernels[widths >> 1](row.data(), columns, channels, planes);
}

ScheduleTrace
brickScheduleTrace(std::span<const uint16_t> neurons,
                   int first_stage_bits)
{
    checkArgs(neurons, first_stage_bits);
    ScheduleTrace trace;
    uint16_t pending[16] = {};
    for (size_t lane = 0; lane < neurons.size(); lane++)
        pending[lane] = neurons[lane];

    const int reach = 1 << first_stage_bits;
    while (true) {
        uint16_t any = 0;
        for (size_t lane = 0; lane < neurons.size(); lane++)
            any |= pending[lane];
        if (any == 0)
            break;
        int min_offset = std::countr_zero(any);

        ScheduleCycle cycle;
        cycle.secondStageShift = static_cast<uint8_t>(min_offset);
        for (size_t lane = 0; lane < neurons.size(); lane++) {
            uint16_t w = pending[lane];
            if (w == 0)
                continue;
            int k = std::countr_zero(w);
            int diff = k - min_offset;
            if (diff < reach) {
                pending[lane] = static_cast<uint16_t>(w & (w - 1));
                cycle.firedLanes |= static_cast<uint16_t>(1u << lane);
                cycle.firstStageShift[lane] = static_cast<uint8_t>(diff);
            }
        }
        PRA_CHECK(cycle.firedLanes != 0,
                             "schedule cycle fired no lanes");
        trace.cycles.push_back(cycle);
        PRA_CHECK(trace.cycles.size() <= 16,
                             "schedule trace exceeded 16 cycles");
    }
    return trace;
}

} // namespace models
} // namespace pra
