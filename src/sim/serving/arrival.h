/**
 * @file
 * Deterministic request-arrival processes for the serving simulator.
 *
 * Arrivals are *counter-based*: the gap after request i is a pure
 * function of (seed, i) — each draw seeds its own Xoshiro256 from a
 * well-mixed per-index hash instead of advancing one shared stream.
 * That costs a few cycles per draw but buys exactly the property the
 * repo's determinism regime needs: the arrival trace is independent
 * of evaluation order, thread count, and how many requests any other
 * component consumed, so serving reports are byte-identical across
 * --threads/--cache and a trace prefix never changes when the
 * request count grows.
 *
 * Two processes cover the capacity-planning questions the serving
 * model answers: Uniform (a fixed inter-arrival gap — the paced
 * load-generator case) and Poisson (exponential gaps — the classic
 * open-system model of independent users).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pra {
namespace sim {

/** Shape of the inter-arrival gap distribution. */
enum class ArrivalKind { Uniform, Poisson };

/** Kind name as accepted by --arrival ("uniform"/"poisson"). */
const char *arrivalKindName(ArrivalKind kind);

/** Parse an --arrival= value; fatal() on anything else. */
ArrivalKind parseArrivalKind(const std::string &text);

/** One arrival process: kind, intensity, and seed. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /**
     * Mean inter-arrival gap in simulated cycles (>= 1). At the
     * nominal 1 GHz clock, a gap of G cycles is an offered load of
     * 1e9 / G images per second.
     */
    double meanGapCycles = 1000.0;
    uint64_t seed = 0x5eed;
};

/**
 * The gap (in cycles, >= 1) between request @p index and request
 * @p index + 1 — a pure function of (spec, index); see file comment.
 */
// pra-lint: allow(test-only-api) the trace's definition, ArrivalTrace's oracle
uint64_t arrivalGap(const ArrivalSpec &spec, int index);

/**
 * The trace of @p count requests, drawn block by block and read by
 * index: request 0 arrives one gap after cycle 0 and request i+1
 * follows i by arrivalGap(spec, i + 1), so a prefix of a longer
 * trace is the shorter trace. It holds the arrival cycles of indices
 * [low, drawn) only, never the whole trace: drawNext() computes the
 * next block of kBlock arrivals without changing the trace, append()
 * publishes it, and release() frees whole blocks below the lowest
 * index any reader still needs.
 *
 * Readers may call cycle() at once with one another, with
 * drawNext(), and with an append() or release() that leaves their
 * indices alone; a reader learns of appended arrivals only through a
 * drawn() read ordered after the append (the serving rounds take a
 * mutex for both).
 */
class ArrivalTrace
{
  public:
    /** Arrivals per drawn block: a power of two, 2^14 (128 KiB). */
    static constexpr int kBlockBits = 14;
    static constexpr int kBlock = 1 << kBlockBits;

    ArrivalTrace(const ArrivalSpec &spec, int count);

    int count() const { return count_; }
    /** One past the last drawn trace index. */
    int drawn() const { return drawn_; }
    bool complete() const { return drawn_ == count_; }

    /** Arrival cycle of request @p index, in [low, drawn). */
    uint64_t
    cycle(int index) const
    {
        return blocks_[static_cast<size_t>(index >> kBlockBits)]
                      [static_cast<size_t>(index & (kBlock - 1))];
    }

    /**
     * The arrival cycles of the next min(kBlock, count - drawn)
     * requests, drawn without changing the trace.
     */
    std::vector<uint64_t> drawNext() const;

    /** Publish the block drawNext() returned. */
    void append(std::vector<uint64_t> block);

    /** Free every block wholly below trace index @p low. */
    void release(int low);

  private:
    ArrivalSpec spec_;
    uint64_t prefix_; ///< The spec-only part of every draw's seed.
    int count_;
    int drawn_ = 0;
    uint64_t last_ = 0;   ///< Cycle of request drawn_ - 1.
    size_t released_ = 0; ///< Blocks before this one are freed.
    /** [b]: cycles of requests b * kBlock on; empty once released. */
    std::vector<std::vector<uint64_t>> blocks_;
};

} // namespace sim
} // namespace pra
