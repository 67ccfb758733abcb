// Seeded violation: a library popcount outside util/bits.h.
#include <bit>
#include <cstdint>

int
setBits(uint16_t code)
{
    return std::popcount(code);
}
