#include "sim/tiling.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace sim {

LayerTiling::LayerTiling(const dnn::LayerSpec &layer,
                         const AccelConfig &config)
    : layer_(layer), config_(config)
{
    PRA_CHECK(layer_.valid(), "LayerTiling: invalid layer");
    PRA_CHECK(config_.valid(), "LayerTiling: invalid config");
    int64_t windows = layer_.windows();
    numPallets_ = (windows + config_.windowsPerPallet - 1) /
                  config_.windowsPerPallet;
    channelBricks_ = (layer_.inputChannels + config_.neuronLanes - 1) /
                     config_.neuronLanes;
    numSets_ = static_cast<int64_t>(layer_.filterY) * layer_.filterX *
               channelBricks_;
    passes_ = config_.passes(layer_.numFilters);
}

int64_t
LayerTiling::palletCount(const dnn::LayerSpec &layer,
                         const AccelConfig &config)
{
    int64_t windows = layer.windows();
    return (windows + config.windowsPerPallet - 1) /
           config.windowsPerPallet;
}

WindowCoord
LayerTiling::windowCoord(int64_t w) const
{
    PRA_CHECK(w >= 0 && w < layer_.windows(),
                         "windowCoord: index out of range");
    WindowCoord coord;
    coord.x = static_cast<int>(w % layer_.outX());
    coord.y = static_cast<int>(w / layer_.outX());
    return coord;
}

int
LayerTiling::windowsInPallet(int64_t p) const
{
    PRA_CHECK(p >= 0 && p < numPallets_,
                         "windowsInPallet: pallet out of range");
    int64_t first = p * config_.windowsPerPallet;
    int64_t remaining = layer_.windows() - first;
    return static_cast<int>(
        std::min<int64_t>(remaining, config_.windowsPerPallet));
}

int64_t
LayerTiling::windowIndex(int64_t p, int column) const
{
    PRA_CHECK(column >= 0 && column < config_.windowsPerPallet,
                         "windowIndex: column out of range");
    int64_t w = p * config_.windowsPerPallet + column;
    return w < layer_.windows() ? w : -1;
}

void
LayerTiling::palletColumns(int64_t p, std::vector<WindowCoord> &out) const
{
    const int active = windowsInPallet(p);
    out.resize(static_cast<size_t>(active));
    for (int c = 0; c < active; c++)
        out[static_cast<size_t>(c)] = windowCoord(windowIndex(p, c));
}

SynapseSetCoord
LayerTiling::setCoord(int64_t s) const
{
    PRA_CHECK(s >= 0 && s < numSets_,
                         "setCoord: set out of range");
    SynapseSetCoord coord;
    coord.brickI = static_cast<int>(s % channelBricks_) *
                   config_.neuronLanes;
    int64_t rest = s / channelBricks_;
    coord.fx = static_cast<int>(rest % layer_.filterX);
    coord.fy = static_cast<int>(rest / layer_.filterX);
    return coord;
}

std::array<uint16_t, dnn::kBrickSize>
LayerTiling::gatherBrick(const dnn::NeuronTensor &input,
                         const WindowCoord &w,
                         const SynapseSetCoord &s) const
{
    std::array<uint16_t, dnn::kBrickSize> brick{};
    std::span<const uint16_t> view = gatherBrickView(input, w, s);
    std::copy(view.begin(), view.end(), brick.begin());
    return brick;
}

std::span<const uint16_t>
LayerTiling::gatherBrickView(const dnn::NeuronTensor &input,
                             const WindowCoord &w,
                             const SynapseSetCoord &s) const
{
    const std::optional<InputColumn> at = inputColumn(w, s);
    if (!at)
        return {}; // Entirely padding: all zeros.
    int lanes = std::min(config_.neuronLanes,
                         layer_.inputChannels - s.brickI);
    return std::span<const uint16_t>(&input.at(at->x, at->y, s.brickI),
                                     static_cast<size_t>(lanes));
}

} // namespace sim
} // namespace pra
