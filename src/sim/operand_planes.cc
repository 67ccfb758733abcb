#include "sim/operand_planes.h"

#include <algorithm>

#include "dnn/weight_synth.h"
#include "util/bits.h"
#include "util/check.h"

namespace pra {
namespace sim {

BrickSummary
summarizeBrick(std::span<const uint16_t> lanes)
{
    BrickSummary s;
    int max_pop = 0;
    int non_zero = 0;
    for (uint16_t v : lanes) {
        int p = util::popcount16(v);
        s.pop += p;
        max_pop = std::max(max_pop, p);
        s.orMask |= v;
        non_zero += v != 0;
    }
    s.maxPop = static_cast<uint8_t>(max_pop);
    s.nonZero = static_cast<uint8_t>(non_zero);
    return s;
}

BrickPlanes
buildBrickPlanes(const dnn::NeuronTensor &tensor)
{
    PRA_CHECK(!tensor.empty(),
              "brickPlanes: empty workload has no planes");
    BrickPlanes planes;
    planes.sizeX = tensor.sizeX();
    planes.sizeY = tensor.sizeY();
    planes.bricksPerColumn =
        (tensor.sizeI() + dnn::kBrickSize - 1) / dnn::kBrickSize;
    size_t cells = static_cast<size_t>(planes.sizeX) * planes.sizeY *
                   planes.bricksPerColumn;
    planes.pop.resize(cells);
    planes.maxPop.resize(cells);
    planes.orPop.resize(cells);
    planes.nonZero.resize(cells);
    planes.orMask.resize(cells);

    const uint16_t *data = tensor.flat().data();
    const int channels = tensor.sizeI();
    size_t out = 0;
    // Channel-major layout: each (x, y) column is `channels`
    // consecutive elements, carved into kBrickSize bricks.
    for (int64_t column = 0;
         column < static_cast<int64_t>(planes.sizeX) * planes.sizeY;
         column++) {
        const uint16_t *lane = data + column * channels;
        for (int base = 0; base < channels; base += dnn::kBrickSize) {
            int lanes = std::min(dnn::kBrickSize, channels - base);
            BrickSummary s = summarizeBrick(
                std::span<const uint16_t>(lane + base,
                                          static_cast<size_t>(lanes)));
            planes.pop[out] = s.pop;
            planes.maxPop[out] = s.maxPop;
            planes.orPop[out] =
                static_cast<uint8_t>(util::popcount16(s.orMask));
            planes.nonZero[out] = s.nonZero;
            planes.orMask[out] = s.orMask;
            out++;
        }
    }
    return planes;
}

namespace {

/**
 * out[i] = popcount(lanes[i]) over @p n lanes. Restrict-qualified so
 * the compiler knows the codes and the planes do not alias and can
 * vectorize the loop.
 */
void
popcountRun(const uint16_t *__restrict lanes, int n,
            uint8_t *__restrict out)
{
    for (int i = 0; i < n; i++)
        out[i] = static_cast<uint8_t>(util::popcount16(lanes[i]));
}

} // namespace

LanePopPlanes
buildLanePopPlanes(const dnn::NeuronTensor &tensor)
{
    PRA_CHECK(!tensor.empty(),
              "lanePopPlanes: empty workload has no planes");
    LanePopPlanes planes;
    planes.sizeX = tensor.sizeX();
    planes.sizeY = tensor.sizeY();
    planes.bricksPerColumn =
        (tensor.sizeI() + dnn::kBrickSize - 1) / dnn::kBrickSize;
    size_t cells = static_cast<size_t>(planes.sizeX) * planes.sizeY *
                   planes.bricksPerColumn * dnn::kBrickSize;
    planes.pop.assign(cells, 0);

    // Brick b's lane i of a column is channel b * kBrickSize + i, so
    // each column's channels map onto one contiguous run of cells;
    // the padding lanes past them stay zero.
    const uint16_t *data = tensor.flat().data();
    const int channels = tensor.sizeI();
    const size_t column_cells =
        static_cast<size_t>(planes.bricksPerColumn) * dnn::kBrickSize;
    for (int64_t column = 0;
         column < static_cast<int64_t>(planes.sizeX) * planes.sizeY;
         column++)
        popcountRun(data + column * channels, channels,
                    planes.pop.data() + column * column_cells);
    return planes;
}

namespace {

/**
 * Fold @p n codes into one contiguous run of weight-plane
 * accumulators, code c into cell c. Restrict-qualified so the
 * compiler knows the planes and the codes do not alias and can
 * vectorize the loop.
 */
void
reduceCodeRun(const uint16_t *__restrict codes, int n,
              int32_t *__restrict sum_pop, uint8_t *__restrict max_pop)
{
    for (int c = 0; c < n; c++) {
        const uint8_t p =
            static_cast<uint8_t>(util::popcount16(codes[c]));
        sum_pop[c] += p;
        max_pop[c] = std::max(max_pop[c], p);
    }
}

/**
 * Reduce @p layer's filters into weight planes, kBrickSize channel
 * lanes per set. @p filter_codes(filter, codes) must fill its span
 * (length layer.synapsesPerFilter(), flat (fy * Fx + fx) * I + c
 * layout — FilterTensor order) with filter @p filter's magnitude
 * codes; it is called once per filter, in filter order. A template
 * parameter rather than a std::function, so the per-filter call
 * inlines.
 */
template <typename FilterCodes>
WeightBrickPlanes
buildWeightBrickPlanes(const dnn::LayerSpec &layer,
                       FilterCodes &&filter_codes)
{
    PRA_CHECK(layer.priced(),
              "weightBrickPlanes: pool layers carry no weights");
    const int channels = layer.inputChannels;
    const int bricks = (channels + dnn::kBrickSize - 1) / dnn::kBrickSize;
    const int positions = layer.filterX * layer.filterY;

    WeightBrickPlanes planes;
    planes.numSets = positions * bricks;
    size_t cells = static_cast<size_t>(planes.numSets) * dnn::kBrickSize;
    planes.sumPop.assign(cells, 0);
    planes.maxPop.assign(cells, 0);

    // Stream one filter at a time, reducing its codes into the
    // per-(set, lane) accumulators. Channel c of kernel position pos
    // is lane c % kBrickSize of set pos * bricks + c / kBrickSize,
    // i.e. cell pos * bricks * kBrickSize + c: a position's channels
    // [0, I) are one contiguous run, and the padding lanes past I are
    // never touched.
    std::vector<uint16_t> codes(
        static_cast<size_t>(layer.synapsesPerFilter()));
    for (int f = 0; f < layer.numFilters; f++) {
        filter_codes(f, codes);
        for (int pos = 0; pos < positions; pos++) {
            const size_t run = planes.index(pos * bricks, 0);
            reduceCodeRun(codes.data() +
                              static_cast<size_t>(pos) * channels,
                          channels, planes.sumPop.data() + run,
                          planes.maxPop.data() + run);
        }
    }
    return planes;
}

} // namespace

WeightBrickPlanes
syntheticWeightPlanes(const dnn::LayerSpec &layer)
{
    return buildWeightBrickPlanes(
        layer, [&layer](int filter, std::span<uint16_t> codes) {
            dnn::synthesizeWeightCodes(layer, filter, codes);
        });
}

WeightBrickPlanes
propagatedWeightPlanes(const dnn::LayerSpec &layer, uint64_t synth_seed)
{
    dnn::PropagatedWeightCodes source(layer, synth_seed);
    return buildWeightBrickPlanes(
        layer, [&source](int filter, std::span<uint16_t> codes) {
            source.filterCodes(filter, codes);
        });
}

} // namespace sim
} // namespace pra
