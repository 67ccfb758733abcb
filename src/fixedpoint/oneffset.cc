#include "fixedpoint/oneffset.h"

#include <bit>

#include "util/bits.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace fixedpoint {

std::vector<Oneffset>
encodeOneffsets(uint16_t neuron)
{
    std::vector<Oneffset> list;
    if (neuron == 0) {
        list.push_back({0, true, false});
        return list;
    }
    uint16_t rest = neuron;
    while (rest != 0) {
        uint8_t pos = static_cast<uint8_t>(std::countr_zero(rest));
        rest = static_cast<uint16_t>(rest & (rest - 1));
        list.push_back({pos, rest == 0, true});
    }
    return list;
}

uint16_t
decodeOneffsets(const std::vector<Oneffset> &offsets)
{
    PRA_CHECK(!offsets.empty(),
                         "decodeOneffsets: empty list");
    PRA_CHECK(offsets.back().eon,
                         "decodeOneffsets: missing end-of-neuron");
    uint16_t value = 0;
    for (size_t i = 0; i < offsets.size(); i++) {
        const Oneffset &entry = offsets[i];
        PRA_CHECK(entry.eon == (i + 1 == offsets.size()),
                             "decodeOneffsets: eon not on last entry");
        if (!entry.valid) {
            PRA_CHECK(offsets.size() == 1,
                                 "decodeOneffsets: null entry in "
                                 "non-zero neuron");
            return 0;
        }
        uint16_t bit = static_cast<uint16_t>(1u << entry.pow);
        PRA_CHECK((value & bit) == 0,
                             "decodeOneffsets: duplicate power");
        value = static_cast<uint16_t>(value | bit);
    }
    return value;
}

OneffsetStream::OneffsetStream(uint16_t neuron)
{
    load(neuron);
}

void
OneffsetStream::load(uint16_t neuron)
{
    pending_ = neuron;
    isZeroNeuron_ = (neuron == 0);
    done_ = false;
}

Oneffset
OneffsetStream::next()
{
    if (done_)
        return {0, true, false}; // Null padding term.
    if (isZeroNeuron_) {
        done_ = true;
        return {0, true, false};
    }
    uint8_t pos = static_cast<uint8_t>(std::countr_zero(pending_));
    pending_ = static_cast<uint16_t>(pending_ & (pending_ - 1));
    if (pending_ == 0)
        done_ = true;
    return {pos, done_, true};
}

int
OneffsetStream::remaining() const
{
    if (done_)
        return 0;
    if (isZeroNeuron_)
        return 1;
    return util::popcount16(pending_);
}

int
oneffsetStorageBits(uint16_t neuron)
{
    // 4-bit pow + 1 eon bit per entry; a zero neuron still needs its
    // null entry.
    int entries = neuron == 0 ? 1 : util::popcount16(neuron);
    return entries * 5;
}

} // namespace fixedpoint
} // namespace pra
