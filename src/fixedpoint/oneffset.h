/**
 * @file
 * The oneffset representation (paper Section V-A1).
 *
 * Pragmatic converts each neuron on the fly from its positional
 * storage format into an explicit list of "oneffsets": the exponents
 * of its constituent powers of two. A neuron n = 101b becomes
 * ((pow=2, eon=0), (pow=0, eon=1)) where the single eon (end-of-
 * neuron) bit marks the last entry. A zero neuron is a single entry
 * (pow=0, eon=1) carrying a null term.
 *
 * The hardware's oneffset generator is a leading-one detector that
 * emits one oneffset per cycle; OneffsetStream mirrors that cycle-by-
 * cycle behaviour, while encodeOneffsets() produces the whole list at
 * once for analysis.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace pra {
namespace fixedpoint {

/**
 * One entry of the explicit powers-of-two list: (pow, eon).
 * pow is 4 bits in hardware (shifts 0..15); eon marks the neuron end.
 * A zero neuron is encoded as a single null entry (valid == false,
 * eon == true) so downstream lanes can inject a zero term.
 */
struct Oneffset
{
    uint8_t pow = 0;     ///< Power of two (0..15).
    bool eon = false;    ///< End-of-neuron marker (out-of-band wire).
    bool valid = true;   ///< False only for the null term of a zero neuron.

    bool operator==(const Oneffset &other) const = default;
};

/**
 * Convert a neuron pattern into its full oneffset list.
 *
 * Entries are ordered from the *least* significant set bit to the most
 * significant one, matching the processing order assumed by the
 * 2-stage-shifting control logic (paper Fig. 7b processes offsets in
 * ascending order). The final entry has eon == true. A zero neuron
 * yields exactly one entry {pow=0, eon=true, valid=false}.
 */
std::vector<Oneffset> encodeOneffsets(uint16_t neuron);

/**
 * Cycle-accurate model of a hardware oneffset generator: a 16-bit
 * leading-one detector that consumes one set bit per next() call.
 * Mirrors encodeOneffsets() output one entry at a time.
 */
class OneffsetStream
{
  public:
    /** Start converting @p neuron. */
    explicit OneffsetStream(uint16_t neuron = 0);

    /** Load a new neuron, discarding any unconsumed bits. */
    void load(uint16_t neuron);

    /** True when all oneffsets (incl. the eon entry) were consumed. */
    bool exhausted() const { return done_; }

    /**
     * Emit the next oneffset. Calling next() on an exhausted stream
     * returns null padding entries {pow=0, eon=true, valid=false};
     * hardware lanes inject zero terms while waiting for slower lanes.
     */
    Oneffset next();

    /** Number of entries remaining (0 when exhausted). */
    int remaining() const;

  private:
    uint16_t pending_ = 0;
    bool isZeroNeuron_ = false;
    bool done_ = true;
};

} // namespace fixedpoint
} // namespace pra

