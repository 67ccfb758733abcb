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
// pra-lint: allow(test-only-api) the trace's definition, the cursor's oracle
uint64_t arrivalGap(const ArrivalSpec &spec, int index);

/**
 * A lazy reader of the trace of @p count requests: request 0 arrives
 * one gap after cycle 0 and request i+1 follows i by
 * arrivalGap(spec, i + 1), so a prefix of a longer trace is the
 * shorter trace. It holds the next @p lookahead arrival cycles and a
 * small block drawn ahead of them, never the whole trace.
 */
class ArrivalCursor
{
  public:
    ArrivalCursor(const ArrivalSpec &spec, int count, int lookahead);

    int remaining() const { return count_ - next_; }
    /** Trace index of the next request to arrive. */
    int index() const { return next_; }

    /** Arrival cycle of request index() + @p ahead (< lookahead). */
    uint64_t
    cycle(int ahead = 0) const
    {
        return buf_[pos_ + static_cast<size_t>(ahead)];
    }

    /** Consume request index(). */
    void
    advance()
    {
        next_++;
        if (++pos_ + lookahead_ > buf_.size() && drawn_ < count_)
            refill();
    }

  private:
    void refill();

    ArrivalSpec spec_;
    uint64_t prefix_; ///< The spec-only part of every draw's seed.
    int count_;
    size_t lookahead_;
    int next_ = 0;
    int drawn_ = 0;
    uint64_t last_ = 0;         ///< Cycle of request drawn_ - 1.
    std::vector<uint64_t> buf_; ///< Cycles from request next_ - pos_.
    size_t pos_ = 0;
    std::vector<double> gaps_; ///< One refill's gaps, before rounding.
};

} // namespace sim
} // namespace pra
