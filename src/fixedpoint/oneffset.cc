#include "fixedpoint/oneffset.h"

#include <bit>

#include "util/bits.h"

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

} // namespace fixedpoint
} // namespace pra
