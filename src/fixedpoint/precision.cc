#include "fixedpoint/precision.h"

#include "fixedpoint/fixed_point.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace fixedpoint {

uint16_t
PrecisionWindow::mask() const
{
    PRA_CHECK(valid(), "PrecisionWindow::mask on bad window");
    uint32_t width = static_cast<uint32_t>(bits());
    uint32_t m = width >= 16 ? 0xffffu : ((1u << width) - 1u);
    return static_cast<uint16_t>(m << lsb);
}

PrecisionWindow
profileWindow(std::span<const uint16_t> values, double tolerance)
{
    PRA_CHECK(tolerance >= 0.0 && tolerance < 1.0,
                         "profileWindow: tolerance must be in [0,1)");
    PrecisionWindow window{0, 0};
    int max_msb = 0;
    double total = 0.0;
    for (uint16_t v : values) {
        max_msb = std::max(max_msb, msbPosition(v));
        total += static_cast<double>(v);
    }
    if (total <= 0.0)
        return PrecisionWindow{0, 0}; // All-zero layer: 1-bit window.
    window.msb = max_msb;

    // Raise the lsb while the cumulative suffix loss stays tolerable.
    double budget = tolerance * total;
    double lost = 0.0;
    int lsb = 0;
    while (lsb < window.msb) {
        // Loss added by dropping bit position `lsb` from every value.
        double bit_loss = 0.0;
        uint16_t bit = static_cast<uint16_t>(1u << lsb);
        for (uint16_t v : values)
            if (v & bit)
                bit_loss += static_cast<double>(bit);
        if (lost + bit_loss > budget)
            break;
        lost += bit_loss;
        lsb++;
    }
    window.lsb = lsb;
    return window;
}

} // namespace fixedpoint
} // namespace pra
