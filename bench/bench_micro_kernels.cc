/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * oneffset generation, brick scheduling across first-stage widths,
 * the functional PIP, activation synthesis, the propagated forward
 * pass's blocked convolution and pooling, the propagated weight
 * planes, and the workload-cache substrate (brick-plane
 * construction, plane-served vs tensor-served pallet-sync layer
 * simulation, a plane-served Laconic layer), and the serving fleet's
 * arrival cursor. These gate the simulator's own throughput, not the
 * modeled hardware.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "dnn/propagate.h"
#include "dnn/reference.h"
#include "fixedpoint/fixed_point.h"
#include "fixedpoint/oneffset.h"
#include "models/laconic/laconic.h"
#include "models/pragmatic/pip.h"
#include "models/pragmatic/schedule.h"
#include "models/pragmatic/pragmatic_engine.h"
#include "sim/nm_model.h"
#include "sim/operand_planes.h"
#include "sim/serving/arrival.h"
#include "sim/tiling.h"
#include "sim/workload_cache.h"
#include "util/random.h"

using namespace pra;

namespace {

std::vector<uint16_t>
randomNeurons(size_t count, uint64_t seed, double zero_prob = 0.5)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint16_t> values(count);
    for (auto &v : values)
        v = rng.nextBool(zero_prob)
                ? 0
                : static_cast<uint16_t>(rng.nextBounded(8192));
    return values;
}

void
BM_OneffsetEncode(benchmark::State &state)
{
    auto neurons = randomNeurons(4096, 1);
    size_t i = 0;
    for (auto _ : state) {
        auto list =
            fixedpoint::encodeOneffsets(neurons[i++ % neurons.size()]);
        benchmark::DoNotOptimize(list);
    }
}
BENCHMARK(BM_OneffsetEncode);

void
BM_OneffsetStream(benchmark::State &state)
{
    auto neurons = randomNeurons(4096, 2);
    size_t i = 0;
    for (auto _ : state) {
        fixedpoint::OneffsetStream stream(
            neurons[i++ % neurons.size()]);
        while (!stream.exhausted())
            benchmark::DoNotOptimize(stream.next());
    }
}
BENCHMARK(BM_OneffsetStream);

void
BM_BrickSchedule(benchmark::State &state)
{
    int l = static_cast<int>(state.range(0));
    auto pool = randomNeurons(16 * 1024, 3);
    size_t i = 0;
    for (auto _ : state) {
        std::span<const uint16_t> brick(&pool[(i * 16) % (16 * 1023)],
                                        16);
        benchmark::DoNotOptimize(models::brickScheduleCycles(brick, l));
        i++;
    }
}
BENCHMARK(BM_BrickSchedule)->DenseRange(0, 4);

/**
 * The batched row schedule kernel against the per-brick serial kernel
 * on real AlexNet conv2 input bricks (27 x 27 x 96: six bricks per
 * column), across the intermediate first-stage widths the cycle
 * planes memoize. One row-kernel iteration schedules every brick of
 * one tensor y-row at every width of @p widths; the serial twin walks
 * the same row brick by brick at one width. items_per_second is
 * (brick, width) schedules per second for all of them, so the
 * three-width case compares directly with the one-width ones.
 */
void
scheduleRowBench(benchmark::State &state, models::ScheduleWidths widths)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto tensor = synth.synthesizeFixed16Trimmed(1);
    const int columns = tensor.sizeX();
    const int channels = tensor.sizeI();
    const int bricks = (channels + 15) / 16;
    const size_t row_len = static_cast<size_t>(columns) * channels;
    std::vector<uint8_t> planes[3];
    std::array<std::span<uint8_t>, 3> out;
    for (int l = 1; l <= 3; l++)
        if (widths & models::scheduleWidth(l)) {
            planes[l - 1].resize(static_cast<size_t>(columns) * bricks);
            out[l - 1] = planes[l - 1];
        }
    size_t y = 0;
    for (auto _ : state) {
        models::scheduleCyclesRow(
            tensor.flat().subspan(y * row_len, row_len), columns,
            channels, widths, out);
        benchmark::DoNotOptimize(out);
        benchmark::ClobberMemory();
        y = (y + 1) % tensor.sizeY();
    }
    state.SetItemsProcessed(state.iterations() * columns * bricks *
                            std::popcount(widths));
}

/** One width, L = range(0). */
void
BM_ScheduleCyclesRow(benchmark::State &state)
{
    scheduleRowBench(state, models::scheduleWidth(
                                static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ScheduleCyclesRow)->DenseRange(1, 3);

/** All three widths in one pass, as the paper grid's planes build. */
void
BM_ScheduleCyclesRowAllWidths(benchmark::State &state)
{
    scheduleRowBench(state, models::kAllScheduleWidths);
}
BENCHMARK(BM_ScheduleCyclesRowAllWidths);

void
BM_ScheduleCyclesPerBrickSerial(benchmark::State &state)
{
    int l = static_cast<int>(state.range(0));
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto tensor = synth.synthesizeFixed16Trimmed(1);
    const int columns = tensor.sizeX();
    const int channels = tensor.sizeI();
    const int bricks = (channels + 15) / 16;
    size_t y = 0;
    for (auto _ : state) {
        for (int x = 0; x < columns; x++) {
            for (int b = 0; b < bricks; b++) {
                int lanes = std::min(16, channels - b * 16);
                std::span<const uint16_t> brick(
                    &tensor.at(x, static_cast<int>(y), b * 16),
                    static_cast<size_t>(lanes));
                benchmark::DoNotOptimize(
                    models::brickScheduleCycles(brick, l));
            }
        }
        y = (y + 1) % tensor.sizeY();
    }
    state.SetItemsProcessed(state.iterations() * columns * bricks);
}
BENCHMARK(BM_ScheduleCyclesPerBrickSerial)->DenseRange(1, 3);

void
BM_PipProcessBrick(benchmark::State &state)
{
    auto neurons = randomNeurons(16, 4);
    std::vector<int16_t> synapses(16);
    util::Xoshiro256 rng(5);
    for (auto &s : synapses)
        s = static_cast<int16_t>(rng.nextInRange(-255, 255));
    models::PragmaticInnerProduct pip(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(pip.processBrick(synapses, neurons));
}
BENCHMARK(BM_PipProcessBrick);

void
BM_ActivationSynthesisLayer(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    for (auto _ : state)
        benchmark::DoNotOptimize(synth.synthesizeFixed16(2));
}
BENCHMARK(BM_ActivationSynthesisLayer);

void
BM_BrickPlanesBuild(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    auto tensor = synth.synthesizeFixed16Trimmed(2);
    for (auto _ : state) {
        // Clone outside the timed region: the workload takes its
        // tensor by value and this should measure plane construction,
        // not a megabyte memcpy.
        state.PauseTiming();
        dnn::NeuronTensor copy = tensor;
        state.ResumeTiming();
        sim::LayerWorkload workload(std::move(copy));
        benchmark::DoNotOptimize(&workload.brickPlanes());
    }
}
BENCHMARK(BM_BrickPlanesBuild);

/**
 * The Dynamic-Stripes per-group reduction kernel over real brick
 * planes: OR the orMask of each group member, then derive the
 * runtime bit-serial precision from the combined mask. Range is the
 * group size in columns (granularity); items_per_second is brick
 * masks reduced per second.
 */
void
BM_DynamicPrecisionReduction(benchmark::State &state)
{
    const size_t group = static_cast<size_t>(state.range(0));
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    sim::BrickPlanes planes =
        sim::buildBrickPlanes(synth.synthesizeFixed16Trimmed(2));
    const size_t masks = planes.orMask.size();
    for (auto _ : state) {
        int64_t cycles = 0;
        for (size_t base = 0; base + group <= masks; base += group) {
            uint16_t mask = 0;
            for (size_t m = 0; m < group; m++)
                mask |= planes.orMask[base + m];
            cycles += fixedpoint::dynamicPrecision(mask, false);
        }
        benchmark::DoNotOptimize(cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * (masks / group) * group));
}
BENCHMARK(BM_DynamicPrecisionReduction)->Arg(1)->Arg(4)->Arg(16);

/**
 * Weight-side plane construction for one conv layer: the full
 * synthetic code stream (every filter) reduced into per-(set, lane)
 * popcount/mask summaries. This is the one-time cost a weight-aware
 * engine (laconic) pays per layer before pricing it.
 */
void
BM_WeightPlanesBuild(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::syntheticWeightPlanes(
            net.layers[2]));
    state.SetItemsProcessed(
        state.iterations() * net.layers[2].numFilters *
        net.layers[2].synapsesPerFilter());
}
BENCHMARK(BM_WeightPlanesBuild);

/**
 * One DiscreteExponential draw at a p-bit precision (range argument)
 * and the light-component rate the activation calibration uses: the
 * inner step of every synthetic activation and weight code.
 */
void
BM_DiscreteExponentialSample(benchmark::State &state)
{
    const uint32_t max_value =
        (1u << static_cast<int>(state.range(0))) - 1;
    dnn::DiscreteExponential dist(
        dnn::calibrateLambda(max_value, dnn::kLightComponentPopcount),
        max_value);
    util::Xoshiro256 rng(0x5a3);
    for (auto _ : state)
        benchmark::DoNotOptimize(dist.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteExponentialSample)->Arg(8)->Arg(11)->Arg(16);

/**
 * Layer @p name of @p net, or null after marking @p state skipped
 * (a renamed zoo layer must not fail the whole binary).
 */
const dnn::LayerSpec *
findLayer(const dnn::Network &net, const std::string &name,
          benchmark::State &state)
{
    const auto layer = std::find_if(
        net.layers.begin(), net.layers.end(),
        [&](const dnn::LayerSpec &l) { return l.name == name; });
    if (layer != net.layers.end())
        return &*layer;
    state.SkipWithError("no such layer");
    return nullptr;
}

/**
 * A chain-like input for @p layer: half zeros (post-ReLU), the rest
 * within the layer's precision.
 */
dnn::NeuronTensor
chainLikeInput(const dnn::LayerSpec &layer)
{
    dnn::NeuronTensor input(layer.inputX, layer.inputY,
                            layer.inputChannels);
    util::Xoshiro256 rng(0xc0de);
    const uint32_t top = 1u << layer.profiledPrecision;
    for (auto &v : input.flat())
        v = rng.nextBool(0.5) ? 0
                              : static_cast<uint16_t>(rng.nextBounded(top));
    return input;
}

/**
 * One layer of the propagated forward pass through BlockedConvolution,
 * its weights drawn from the layer's FilterWeightStream as
 * propagateChain() draws them, on a chainLikeInput(). Range 0 is the
 * baseline kernel, 1 the AVX2 one; items_per_second is dense MACs.
 */
void
BM_BlockedConvolution(benchmark::State &state,
                      dnn::Network (*make_network)(dnn::LayerSelect),
                      const std::string &layer_name)
{
    const auto isa = static_cast<dnn::ConvolutionIsa>(state.range(0));
    if (isa == dnn::ConvolutionIsa::Avx2 &&
        dnn::bestConvolutionIsa() != isa) {
        state.SkipWithError("no AVX2 kernel on this build or CPU");
        return;
    }
    const dnn::Network net = make_network(dnn::LayerSelect::All);
    const dnn::LayerSpec *layer = findLayer(net, layer_name, state);
    if (!layer)
        return;
    const dnn::BlockedConvolution kernel(*layer, chainLikeInput(*layer));
    for (auto _ : state) {
        dnn::FilterWeightStream stream(*layer, 0xf117);
        benchmark::DoNotOptimize(
            kernel.run([&stream] { return stream.next(); }, isa));
    }
    state.SetItemsProcessed(state.iterations() * layer->outX() *
                            layer->outY() * layer->numFilters *
                            layer->synapsesPerFilter());
}
BENCHMARK_CAPTURE(BM_BlockedConvolution, googlenet_inception_3a_3x3,
                  &dnn::makeGoogLeNet, "inception_3a/3x3")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BlockedConvolution, alexnet_fc6,
                  &dnn::makeAlexNet, "fc6")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * BlockedConvolution's construction alone: the non-zero index of one
 * GoogLeNet layer's chainLikeInput(), which the propagated forward
 * pass builds once per layer. items_per_second is input activations.
 */
void
BM_BlockedConvolutionIndex(benchmark::State &state,
                           const std::string &layer_name)
{
    const dnn::Network net = dnn::makeGoogLeNet(dnn::LayerSelect::All);
    const dnn::LayerSpec *layer = findLayer(net, layer_name, state);
    if (!layer)
        return;
    const dnn::NeuronTensor input = chainLikeInput(*layer);
    for (auto _ : state) {
        const dnn::BlockedConvolution kernel(*layer, input);
        benchmark::DoNotOptimize(&kernel);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_BlockedConvolutionIndex, googlenet_conv2_3x3,
                  "conv2/3x3")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BlockedConvolutionIndex, googlenet_inception_3a_1x1,
                  "inception_3a/1x1")
    ->Unit(benchmark::kMicrosecond);

/**
 * Weight-side planes of the propagated reference filters for one
 * layer: every weight drawn from the layer's FilterWeightStream,
 * requantized, and reduced per (set, lane) — the per-layer cost a
 * propagated sweep pays before pricing weight-aware engines. AlexNet
 * fc7 (16.8M weights) is the longest chain's weight-bound layer;
 * items_per_second is weight codes reduced.
 */
void
BM_PropagatedWeightPlanesBuild(benchmark::State &state)
{
    const dnn::Network net = dnn::makeAlexNet(dnn::LayerSelect::All);
    const dnn::LayerSpec *layer = findLayer(net, "fc7", state);
    if (!layer)
        return;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::propagatedWeightPlanes(
            *layer, 0x5eed));
    state.SetItemsProcessed(state.iterations() * layer->numFilters *
                            layer->synapsesPerFilter());
}
BENCHMARK(BM_PropagatedWeightPlanesBuild)->Unit(benchmark::kMillisecond);

/**
 * One pool layer of the propagated forward pass over chain-like int64
 * activations (half zeros, post-ReLU). items_per_second is window
 * taps (output elements x window area).
 */
void
BM_PoolForward(benchmark::State &state,
               dnn::Network (*make_network)(dnn::LayerSelect),
               const std::string &layer_name)
{
    const dnn::Network net = make_network(dnn::LayerSelect::All);
    const dnn::LayerSpec *layer = findLayer(net, layer_name, state);
    if (!layer)
        return;
    dnn::Tensor3D<int64_t> input(layer->inputX, layer->inputY,
                                 layer->inputChannels);
    util::Xoshiro256 rng(0x9001);
    for (auto &v : input.flat())
        v = rng.nextBool(0.5)
                ? 0
                : static_cast<int64_t>(rng.nextBounded(1u << 20));
    for (auto _ : state)
        benchmark::DoNotOptimize(dnn::poolForward(*layer, input));
    state.SetItemsProcessed(state.iterations() * layer->outX() *
                            layer->outY() * layer->inputChannels *
                            layer->filterX * layer->filterY);
}
BENCHMARK_CAPTURE(BM_PoolForward, googlenet_inception_3a_pool,
                  &dnn::makeGoogLeNet, "inception_3a/pool")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PoolForward, alexnet_pool1, &dnn::makeAlexNet,
                  "pool1")
    ->Unit(benchmark::kMicrosecond);

/**
 * The NM row count of one pallet step (sim/nm_model.h), over one
 * AlexNet conv2 pallet at every synapse set, as the pallet-sync
 * engine asks it with NM stalls modeled. items_per_second is steps
 * (pallet, set) priced per second.
 */
void
BM_NmFetchCycles(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    sim::LayerTiling tiling(net.layers[1], sim::AccelConfig{});
    std::vector<sim::WindowCoord> columns;
    tiling.palletColumns(1, columns);
    std::vector<sim::SynapseSetCoord> sets;
    for (int64_t s = 0; s < tiling.numSynapseSets(); s++)
        sets.push_back(tiling.setCoord(s));
    for (auto _ : state) {
        int rows = 0;
        for (const sim::SynapseSetCoord &set : sets)
            rows += sim::nmFetchCycles(tiling, columns, set);
        benchmark::DoNotOptimize(rows);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(sets.size()));
}
BENCHMARK(BM_NmFetchCycles);

/**
 * One pallet-sync layer (AlexNet conv3), first-stage width from the
 * range argument, served from a workload whose brick planes are built
 * outside the timed region.
 */
void
BM_PalletSyncLayerWorkload(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    sim::LayerWorkload workload(synth.synthesizeFixed16Trimmed(2));
    workload.brickPlanes(); // Build outside the timed region.
    const models::PragmaticEngine engine(
        models::SyncScheme::Pallet,
        {{"bits", std::to_string(state.range(0))}});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.simulateLayer(
            net.layers[2], workload, sim::AccelConfig{},
            sim::SampleSpec{16}, util::InnerExecutor()));
}
BENCHMARK(BM_PalletSyncLayerWorkload)->DenseRange(0, 4, 2);

/**
 * An FC layer priced through the pallet-sync path: the 1x1xI
 * lowering tiles to a single-window partial pallet over ceil(I/16)
 * channel bricks (AlexNet fc8: 256 bricks, one window), stressing
 * the partial-pallet/channel-brick walk instead of the spatial
 * window walk the conv benches cover.
 */
void
BM_FcLoweringPalletSync(benchmark::State &state)
{
    auto net = dnn::makeAlexNet(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net);
    int fc8 = static_cast<int>(net.layers.size()) - 1;
    sim::LayerWorkload workload(synth.synthesizeFixed16Trimmed(fc8));
    workload.brickPlanes(); // Build outside the timed region.
    const models::PragmaticEngine engine(
        models::SyncScheme::Pallet,
        {{"bits", std::to_string(state.range(0))}});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.simulateLayer(
            net.layers[fc8], workload, sim::AccelConfig{},
            sim::SampleSpec{0}, util::InnerExecutor()));
}
BENCHMARK(BM_FcLoweringPalletSync)->DenseRange(0, 4, 2);

/**
 * One Laconic layer (AlexNet conv2) served from a shared workload
 * whose lane-pop and weight planes are built outside the timed
 * region: the per-set column reduction and its 16-lane weight
 * product.
 */
void
BM_LaconicLayerWorkload(benchmark::State &state)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    const dnn::LayerSpec &conv2 = net.layers[1];
    sim::LayerWorkload workload(synth.synthesizeFixed16Trimmed(1));
    workload.lanePopPlanes();
    workload.weightPlanes(conv2);
    const models::LaconicEngine engine({});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.simulateLayer(
            conv2, workload, sim::AccelConfig{}, sim::SampleSpec{16},
            util::InnerExecutor()));
}
BENCHMARK(BM_LaconicLayerWorkload)->Unit(benchmark::kMicrosecond);

/**
 * Draw 1M Poisson arrivals block by block as a serving round does,
 * reading each one and freeing each block behind the reader.
 */
void
BM_ArrivalTrace(benchmark::State &state)
{
    const int count = 1'000'000;
    sim::ArrivalSpec spec;
    spec.kind = sim::ArrivalKind::Poisson;
    for (auto _ : state) {
        sim::ArrivalTrace trace(spec, count);
        uint64_t last = 0;
        while (!trace.complete()) {
            const int first = trace.drawn();
            trace.append(trace.drawNext());
            for (int i = first; i < trace.drawn(); i++)
                last = trace.cycle(i);
            trace.release(trace.drawn());
        }
        benchmark::DoNotOptimize(last);
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ArrivalTrace)->Unit(benchmark::kMillisecond);

void
BM_WorkloadCacheHit(benchmark::State &state)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    sim::WorkloadCache cache;
    cache.layer(synth, 0, sim::InputStream::Fixed16Trimmed);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.layer(synth, 0, sim::InputStream::Fixed16Trimmed));
}
BENCHMARK(BM_WorkloadCacheHit);

} // namespace

BENCHMARK_MAIN();
