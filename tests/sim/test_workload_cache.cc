/**
 * @file
 * Tests for the shared workload cache: plane math against brute
 * force, cache hit/sharing semantics, and engine-level equivalence of
 * cached vs uncached workload views.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dnn/activation_synth.h"
#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "models/pragmatic/schedule.h"
#include "sim/workload_cache.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {
namespace {

/** Every stream an engine can request. */
const InputStream kStreams[] = {InputStream::Fixed16Raw,
                                InputStream::Fixed16Trimmed,
                                InputStream::Quant8};

TEST(BrickPlanes, MatchBruteForcePerBrick)
{
    auto net = dnn::makeAlexNet();
    dnn::ActivationSynthesizer synth(net);
    // Layer 2 of AlexNet has a channel count that is a multiple of
    // 16; the Tiny network below covers the partial-brick case.
    LayerWorkload workload(synth.synthesizeFixed16(2));
    const dnn::NeuronTensor &tensor = workload.tensor();
    const BrickPlanes &planes = workload.brickPlanes();

    ASSERT_EQ(planes.sizeX, tensor.sizeX());
    ASSERT_EQ(planes.sizeY, tensor.sizeY());
    ASSERT_EQ(planes.bricksPerColumn,
              (tensor.sizeI() + dnn::kBrickSize - 1) / dnn::kBrickSize);

    for (int y = 0; y < tensor.sizeY(); y += 7) {
        for (int x = 0; x < tensor.sizeX(); x += 5) {
            for (int b = 0; b < planes.bricksPerColumn; b++) {
                int32_t pop = 0;
                int max_pop = 0;
                int non_zero = 0;
                uint16_t any = 0;
                int lanes = std::min(dnn::kBrickSize,
                                     tensor.sizeI() -
                                         b * dnn::kBrickSize);
                for (int i = 0; i < lanes; i++) {
                    uint16_t v =
                        tensor.at(x, y, b * dnn::kBrickSize + i);
                    pop += std::popcount(v);
                    max_pop = std::max(max_pop,
                                       std::popcount(v));
                    any |= v;
                    non_zero += v != 0;
                }
                size_t idx = planes.index(x, y, b);
                EXPECT_EQ(planes.pop[idx], pop);
                EXPECT_EQ(planes.maxPop[idx], max_pop);
                EXPECT_EQ(planes.orPop[idx], std::popcount(any));
                EXPECT_EQ(planes.nonZero[idx], non_zero);
            }
        }
    }
}

TEST(BrickPlanes, ScheduleIdentitiesHold)
{
    // The plane shortcuts rely on cycles(L=0) == orPop and
    // cycles(L=4) == maxPop; check them against the real schedule on
    // a real stream, brick by brick.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    LayerWorkload workload(synth.synthesizeFixed16(1));
    const dnn::NeuronTensor &tensor = workload.tensor();
    const BrickPlanes &planes = workload.brickPlanes();

    for (int y = 0; y < tensor.sizeY(); y++) {
        for (int x = 0; x < tensor.sizeX(); x++) {
            for (int b = 0; b < planes.bricksPerColumn; b++) {
                int lanes = std::min(dnn::kBrickSize,
                                     tensor.sizeI() -
                                         b * dnn::kBrickSize);
                std::span<const uint16_t> brick(
                    &tensor.at(x, y, b * dnn::kBrickSize), lanes);
                size_t idx = planes.index(x, y, b);
                EXPECT_EQ(models::brickScheduleCycles(brick, 0),
                          planes.orPop[idx]);
                EXPECT_EQ(models::brickScheduleCycles(brick, 4),
                          planes.maxPop[idx]);
                if (planes.orPop[idx] == planes.maxPop[idx]) {
                    for (int l = 1; l <= 3; l++)
                        EXPECT_EQ(
                            models::brickScheduleCycles(brick, l),
                            planes.maxPop[idx]);
                }
            }
        }
    }
}

TEST(BrickPlanes, CyclePlanesMatchSerialScheduleEverywhere)
{
    // The memoized cycle planes must hold the exact serial schedule
    // length of every brick for every first-stage width they serve
    // (L in 1..3), and the packed planes already pin L=0 (orPop) and
    // L=4 (maxPop). Real streams of both shapes: AlexNet conv3's
    // 256-channel multiple-of-16 bricks and Tiny's 8-channel partial
    // bricks.
    for (bool partial : {false, true}) {
        auto net = partial ? dnn::makeTinyNetwork()
                           : dnn::makeAlexNet();
        dnn::ActivationSynthesizer synth(net);
        LayerWorkload workload(
            synth.synthesizeFixed16(partial ? 0 : 2));
        const dnn::NeuronTensor &tensor = workload.tensor();
        const BrickPlanes &planes = workload.brickPlanes();
        int step = partial ? 1 : 5; // Sample the big stream.
        for (int l = 1; l <= 3; l++) {
            std::span<const uint8_t> plane = workload.cyclePlane(l);
            ASSERT_EQ(plane.size(), planes.pop.size());
            for (int y = 0; y < tensor.sizeY(); y += step) {
                for (int x = 0; x < tensor.sizeX(); x += step) {
                    for (int b = 0; b < planes.bricksPerColumn; b++) {
                        int lanes =
                            std::min(dnn::kBrickSize,
                                     tensor.sizeI() -
                                         b * dnn::kBrickSize);
                        std::span<const uint16_t> brick(
                            &tensor.at(x, y, b * dnn::kBrickSize),
                            static_cast<size_t>(lanes));
                        EXPECT_EQ(
                            plane[planes.index(x, y, b)],
                            models::brickScheduleCycles(brick, l))
                            << "x=" << x << " y=" << y << " b=" << b
                            << " l=" << l;
                    }
                }
            }
        }
    }
}

TEST(BrickPlanes, CyclePlanesOnRandomBricks)
{
    // Property test on synthetic random tensors: partial last brick
    // (channels == 24), all-zero columns, dense columns. Every L in
    // 0..4 resolves exactly — 0/4 through the packed-plane
    // identities, 1..3 through the memoized plane.
    util::Xoshiro256 rng(0x9a9a);
    dnn::NeuronTensor tensor(5, 4, 24);
    for (auto &v : tensor.flat())
        v = rng.nextBool(0.4)
                ? 0
                : static_cast<uint16_t>(rng.nextBounded(65536));
    LayerWorkload workload{dnn::NeuronTensor(tensor)};
    const BrickPlanes &planes = workload.brickPlanes();
    for (int y = 0; y < tensor.sizeY(); y++) {
        for (int x = 0; x < tensor.sizeX(); x++) {
            for (int b = 0; b < planes.bricksPerColumn; b++) {
                int lanes = std::min(dnn::kBrickSize,
                                     tensor.sizeI() -
                                         b * dnn::kBrickSize);
                std::span<const uint16_t> brick(
                    &tensor.at(x, y, b * dnn::kBrickSize),
                    static_cast<size_t>(lanes));
                size_t idx = planes.index(x, y, b);
                for (int l = 0; l <= 4; l++) {
                    int expected =
                        models::brickScheduleCycles(brick, l);
                    int got;
                    if (l == 0)
                        got = planes.orPop[idx];
                    else if (l == 4)
                        got = planes.maxPop[idx];
                    else
                        got = workload.cyclePlane(l)[idx];
                    EXPECT_EQ(got, expected)
                        << "x=" << x << " y=" << y << " b=" << b
                        << " l=" << l;
                }
            }
        }
    }
}

TEST(BrickPlanesDeathTest, CyclePlaneRejectsNonMemoizedWidths)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    LayerWorkload workload(synth.synthesizeFixed16(0));
    // L=0 and L=4 live in the packed planes, not the cycle planes.
    EXPECT_DEATH(workload.cyclePlane(0), "intermediate");
    EXPECT_DEATH(workload.cyclePlane(4), "intermediate");
    LayerWorkload empty{dnn::NeuronTensor()};
    EXPECT_DEATH(empty.cyclePlane(2), "empty workload");
    // Nor can a workload build them as part of its width set.
    for (int l : {0, 4})
        EXPECT_DEATH(LayerWorkload(synth.synthesizeFixed16(0), {},
                                   models::scheduleWidth(l)),
                     "1\\.\\.3");
}

/** A random stream with partial bricks and all-zero columns. */
dnn::NeuronTensor
randomStream(uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    dnn::NeuronTensor tensor(7, 5, 40);
    for (auto &v : tensor.flat())
        v = rng.nextBool(0.4)
                ? 0
                : static_cast<uint16_t>(rng.nextBounded(65536));
    return tensor;
}

/** The plane each width builds on its own. */
std::vector<std::vector<uint8_t>>
perWidthPlanes(const dnn::NeuronTensor &tensor)
{
    std::vector<std::vector<uint8_t>> planes;
    for (int l = 1; l <= 3; l++) {
        LayerWorkload alone{dnn::NeuronTensor(tensor)};
        std::span<const uint8_t> plane = alone.cyclePlane(l);
        EXPECT_EQ(alone.cyclePlanesBuilt(), models::scheduleWidth(l));
        planes.emplace_back(plane.begin(), plane.end());
    }
    return planes;
}

TEST(BrickPlanes, WidthSetsBuildTogetherAndMatchPerWidthBuilds)
{
    // A workload built with a width set builds the whole set on the
    // first cyclePlane() call for any width of it, and each plane
    // equals that width's lone build; a width outside the set still
    // builds on demand, alone.
    const dnn::NeuronTensor tensor = randomStream(0x5e75);
    const auto alone = perWidthPlanes(tensor);
    const models::ScheduleWidths w1 = models::scheduleWidth(1);
    const models::ScheduleWidths w2 = models::scheduleWidth(2);
    const models::ScheduleWidths w3 = models::scheduleWidth(3);
    for (models::ScheduleWidths set :
         {models::kAllScheduleWidths, w2, w1 | w3}) {
        SCOPED_TRACE("widths=" + std::to_string(set));
        LayerWorkload workload(dnn::NeuronTensor(tensor), {}, set);
        EXPECT_EQ(workload.cyclePlanesBuilt(), 0u);
        const int first = std::countr_zero(set);
        workload.cyclePlane(first);
        EXPECT_EQ(workload.cyclePlanesBuilt(), set);
        for (int l = 1; l <= 3; l++) {
            std::span<const uint8_t> plane = workload.cyclePlane(l);
            EXPECT_TRUE(std::equal(plane.begin(), plane.end(),
                                   alone[l - 1].begin(),
                                   alone[l - 1].end()))
                << "l=" << l;
            // Widths outside the set build only when asked for.
            const models::ScheduleWidths asked =
                set | (models::kAllScheduleWidths &
                       ~(~0u << (l + 1)));
            EXPECT_EQ(workload.cyclePlanesBuilt(), asked) << "l=" << l;
        }
    }
}

TEST(BrickPlanes, ConcurrentWidthRequestsShareOneSetBuild)
{
    // Three threads asking one workload for L = 1, 2 and 3 at once
    // get the per-width planes: the set builds once, under one
    // once-flag, and nobody reads a plane still being written.
    const dnn::NeuronTensor tensor = randomStream(0xc0c0);
    const auto alone = perWidthPlanes(tensor);
    for (int round = 0; round < 20; round++) {
        LayerWorkload workload(dnn::NeuronTensor(tensor), {},
                               models::kAllScheduleWidths);
        std::vector<std::vector<uint8_t>> got(3);
        std::vector<std::thread> threads;
        for (int l = 1; l <= 3; l++)
            threads.emplace_back([&workload, &got, l] {
                std::span<const uint8_t> plane = workload.cyclePlane(l);
                got[l - 1].assign(plane.begin(), plane.end());
            });
        for (std::thread &t : threads)
            t.join();
        EXPECT_EQ(got, alone) << "round " << round;
        EXPECT_EQ(workload.cyclePlanesBuilt(),
                  models::kAllScheduleWidths);
    }
}

TEST(WorkloadCache, PlannedWidthsReachItsWorkloads)
{
    // planCycleWidths sets the width set of every layer() workload of
    // the network; other networks, uncached sources and an unplanned
    // cache build width by width.
    auto net = dnn::makeTinyNetwork();
    auto other = dnn::makeAlexNet();
    WorkloadCache cache;
    const models::ScheduleWidths w1 = models::scheduleWidth(1);
    const models::ScheduleWidths w3 = models::scheduleWidth(3);
    cache.planCycleWidths(net, w1);
    cache.planCycleWidths(net, w3); // Plans accumulate.
    cache.planCycleWidths(net, 0);
    auto synth = cache.synthesizer(net, 0x5eed);
    auto workload =
        cache.layer(*synth, 0, InputStream::Fixed16Trimmed);
    workload->cyclePlane(3);
    EXPECT_EQ(workload->cyclePlanesBuilt(), w1 | w3);
    auto uncached =
        WorkloadSource(*synth).layer(0, InputStream::Fixed16Trimmed);
    uncached->cyclePlane(3);
    EXPECT_EQ(uncached->cyclePlanesBuilt(), w3);
    auto other_synth = cache.synthesizer(other, 0x5eed);
    auto unplanned =
        cache.layer(*other_synth, 1, InputStream::Fixed16Trimmed);
    unplanned->cyclePlane(3);
    EXPECT_EQ(unplanned->cyclePlanesBuilt(), w3);
    // The plan outlives a release.
    cache.release(net);
    synth = cache.synthesizer(net, 0x5eed);
    workload = cache.layer(*synth, 0, InputStream::Fixed16Trimmed);
    workload->cyclePlane(1);
    EXPECT_EQ(workload->cyclePlanesBuilt(), w1 | w3);
}

TEST(WorkloadCache, CyclePlanesToggleRoundTrips)
{
    // The global switch only routes the lookup; it must read back
    // and leave results unchanged (the sweep suite asserts CSV
    // byte-identity; here just the toggle mechanics).
    ASSERT_TRUE(cyclePlanesEnabled()); // Default: on.
    setCyclePlanesEnabled(false);
    EXPECT_FALSE(cyclePlanesEnabled());
    setCyclePlanesEnabled(true);
    EXPECT_TRUE(cyclePlanesEnabled());
}

TEST(WorkloadCache, SharesOneWorkloadPerKey)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadCache cache;
    auto first =
        cache.layer(synth, 0, InputStream::Fixed16Trimmed);
    auto second =
        cache.layer(synth, 0, InputStream::Fixed16Trimmed);
    EXPECT_EQ(first.get(), second.get()); // Same object, not a copy.
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 1);

    // A different stream, layer, or seed is a different workload.
    auto raw = cache.layer(synth, 0, InputStream::Fixed16Raw);
    EXPECT_NE(first.get(), raw.get());
    auto other_layer =
        cache.layer(synth, 1, InputStream::Fixed16Trimmed);
    EXPECT_NE(first.get(), other_layer.get());
    EXPECT_EQ(cache.misses(), 3);
}

TEST(WorkloadCache, DistinguishesLayerSelectionsOfSameNetwork)
{
    // Two selections of one network share the name "Tiny" but not a
    // layer list: the cache keys carry the layer fingerprint, so
    // neither the synthesizer nor any layer workload may be shared
    // (layer 0 is conv1's 12x12x8 stream in one and fc1's 1x1x3200
    // column in the other).
    auto all_net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    auto fc_net = dnn::makeTinyNetwork(dnn::LayerSelect::Fc);
    ASSERT_EQ(all_net.name, fc_net.name);
    EXPECT_NE(all_net.workloadFingerprint(),
              fc_net.workloadFingerprint());

    WorkloadCache cache;
    auto all_synth = cache.synthesizer(all_net, 0x5eed);
    auto fc_synth = cache.synthesizer(fc_net, 0x5eed);
    EXPECT_NE(all_synth.get(), fc_synth.get());

    auto all_l0 =
        cache.layer(*all_synth, 0, InputStream::Fixed16Trimmed);
    auto fc_l0 =
        cache.layer(*fc_synth, 0, InputStream::Fixed16Trimmed);
    EXPECT_NE(all_l0.get(), fc_l0.get());
    EXPECT_EQ(all_l0->tensor().sizeI(), 8);
    EXPECT_EQ(fc_l0->tensor().sizeI(), 800);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.hits(), 0);
}

TEST(WorkloadCache, CachedEqualsFreshSynthesis)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadCache cache;
    for (InputStream stream : kStreams) {
        for (size_t i = 0; i < net.layers.size(); i++) {
            auto cached =
                cache.layer(synth, static_cast<int>(i), stream);
            dnn::NeuronTensor fresh =
                synthesizeStream(synth, static_cast<int>(i), stream);
            ASSERT_EQ(cached->tensor().size(), fresh.size());
            auto lhs = cached->tensor().flat();
            auto rhs = fresh.flat();
            for (size_t k = 0; k < rhs.size(); k++)
                ASSERT_EQ(lhs[k], rhs[k]);
        }
    }
}

TEST(WorkloadCache, ChainIsBuiltOnceAndShared)
{
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    WorkloadCache cache;
    auto first = cache.chain(synth);
    auto again = cache.chain(synth);
    EXPECT_EQ(first.get(), again.get()); // One forward pass, shared.
    // Another seed is another chain.
    dnn::ActivationSynthesizer other(net, 0xbeef);
    EXPECT_NE(cache.chain(other).get(), first.get());
}

TEST(WorkloadCache, PropagatedWorkloadsAreModeKeyed)
{
    // The synthetic and propagated views of the same (layer, stream)
    // must never alias: conv2's synthetic stream is independent
    // noise, its propagated stream is conv1's actual output.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    WorkloadCache cache;
    auto synthetic = cache.layer(synth, 1, InputStream::Fixed16Raw,
                                 ActivationMode::Synthetic);
    auto propagated = cache.layer(synth, 1, InputStream::Fixed16Raw,
                                  ActivationMode::Propagated);
    EXPECT_NE(synthetic.get(), propagated.get());
    EXPECT_EQ(cache.misses(), 2); // Two distinct entries.
    bool differ = false;
    auto lhs = synthetic->tensor().flat();
    auto rhs = propagated->tensor().flat();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t k = 0; k < rhs.size(); k++)
        differ |= lhs[k] != rhs[k];
    EXPECT_TRUE(differ);

    // Layer 0 is the shared image: same bits under either mode
    // (still separate cache entries).
    auto s0 = cache.layer(synth, 0, InputStream::Fixed16Raw,
                          ActivationMode::Synthetic);
    auto p0 = cache.layer(synth, 0, InputStream::Fixed16Raw,
                          ActivationMode::Propagated);
    auto l0 = s0->tensor().flat();
    auto r0 = p0->tensor().flat();
    ASSERT_EQ(l0.size(), r0.size());
    for (size_t k = 0; k < r0.size(); k++)
        ASSERT_EQ(l0[k], r0[k]);
}

TEST(WorkloadCache, PropagatedCachedEqualsUncachedSource)
{
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    WorkloadCache cache;
    WorkloadSource cached(synth, cache, ActivationMode::Propagated);
    WorkloadSource uncached(synth, ActivationMode::Propagated);
    for (InputStream stream : kStreams) {
        for (size_t i = 0; i < net.layers.size(); i++) {
            if (!net.layers[i].priced())
                continue;
            auto a = cached.layer(static_cast<int>(i), stream);
            auto b = uncached.layer(static_cast<int>(i), stream);
            ASSERT_EQ(a->tensor().size(), b->tensor().size());
            auto lhs = a->tensor().flat();
            auto rhs = b->tensor().flat();
            for (size_t k = 0; k < rhs.size(); k++)
                ASSERT_EQ(lhs[k], rhs[k]);
        }
    }
    // The uncached source memoized one local chain rather than
    // re-propagating per request.
    EXPECT_EQ(uncached.chain().get(), uncached.chain().get());
}

TEST(WorkloadCache, NoneStreamIsSharedEmptyView)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadCache cache;
    auto none = cache.layer(synth, 0, InputStream::None);
    ASSERT_NE(none, nullptr);
    EXPECT_TRUE(none->tensor().empty());
    EXPECT_EQ(cache.misses(), 0); // Not a synthesis, not a miss.

    WorkloadSource uncached(synth);
    EXPECT_EQ(uncached.layer(0, InputStream::None).get(), none.get());
}

TEST(WorkloadCache, ConcurrentRequestersShareOneBuild)
{
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net);
    WorkloadCache cache;
    std::vector<std::shared_ptr<const LayerWorkload>> views(16);
    {
        util::ThreadPool pool(4);
        for (size_t t = 0; t < views.size(); t++)
            pool.submit([&cache, &synth, &views, t] {
                views[t] = cache.layer(
                    synth, 0, InputStream::Fixed16Trimmed);
            });
        pool.wait();
    }
    for (const auto &view : views)
        EXPECT_EQ(view.get(), views[0].get());
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 15);
}

void
expectSamePlanes(const WeightBrickPlanes &a, const WeightBrickPlanes &b)
{
    EXPECT_EQ(a.numSets, b.numSets);
    EXPECT_EQ(a.sumPop, b.sumPop);
    EXPECT_EQ(a.maxPop, b.maxPop);
}

TEST(WorkloadCache, WeightPlanesSharedAcrossImagesAndStreams)
{
    // Synthetic weights depend on the layer alone: every image and
    // stream of a layer — even under another seed — resolves to one
    // object, equal to a fresh build, and the lookups leave the
    // layer-workload counters alone.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    dnn::ActivationSynthesizer reseeded(net, 0xbeef);
    const int layer_idx = 1;
    const dnn::LayerSpec &layer = net.layers[layer_idx];
    WorkloadCache cache;
    std::vector<std::shared_ptr<const LayerWorkload>> views;
    for (const dnn::ActivationSynthesizer *s : {&synth, &reseeded})
        for (int image = 0; image < 4; image++)
            for (InputStream stream : kStreams)
                views.push_back(cache.layer(*s, layer_idx, stream,
                                            ActivationMode::Synthetic,
                                            image));
    const int64_t hits = cache.hits();
    const int64_t misses = cache.misses();
    EXPECT_EQ(misses, 24);

    std::vector<const WeightBrickPlanes *> planes(views.size());
    {
        util::ThreadPool pool(4);
        for (size_t v = 0; v < views.size(); v++)
            pool.submit([&views, &planes, &layer, v] {
                planes[v] = &views[v]->weightPlanes(layer);
            });
        pool.wait();
    }
    for (const WeightBrickPlanes *p : planes)
        EXPECT_EQ(p, planes[0]);
    expectSamePlanes(*planes[0], syntheticWeightPlanes(layer));
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);

    // An uncached source builds per workload, with equal contents.
    auto uncached =
        WorkloadSource(synth).layer(layer_idx, InputStream::Fixed16Raw);
    EXPECT_NE(&uncached->weightPlanes(layer), planes[0]);
    expectSamePlanes(uncached->weightPlanes(layer), *planes[0]);
}

TEST(WorkloadCache, PropagatedWeightPlanesKeyedBySeed)
{
    // Propagated weights requantize the seed's reference filters:
    // images of one seed share an entry, another seed or the
    // synthetic mode is a distinct entry.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer a(net, 0x5eed);
    dnn::ActivationSynthesizer b(net, 0xbeef);
    const int layer_idx = 0;
    const dnn::LayerSpec &layer = net.layers[layer_idx];
    WorkloadCache cache;
    auto weightsOf = [&](const dnn::ActivationSynthesizer &s,
                         InputStream stream, ActivationMode mode,
                         int image) -> const WeightBrickPlanes & {
        return cache.layer(s, layer_idx, stream, mode, image)
            ->weightPlanes(layer);
    };
    const WeightBrickPlanes &pa = weightsOf(
        a, InputStream::Fixed16Raw, ActivationMode::Propagated, 0);
    EXPECT_EQ(&pa, &weightsOf(a, InputStream::Quant8,
                              ActivationMode::Propagated, 1));
    const WeightBrickPlanes &pb = weightsOf(
        b, InputStream::Fixed16Raw, ActivationMode::Propagated, 0);
    EXPECT_NE(&pa, &pb);
    const WeightBrickPlanes &synthetic = weightsOf(
        a, InputStream::Fixed16Raw, ActivationMode::Synthetic, 0);
    EXPECT_NE(&pa, &synthetic);
    EXPECT_NE(&pb, &synthetic);

    expectSamePlanes(pa, propagatedWeightPlanes(layer, 0x5eed));
    expectSamePlanes(pb, propagatedWeightPlanes(layer, 0xbeef));
    EXPECT_NE(pa.sumPop, pb.sumPop);
}

TEST(WorkloadCache, WeightsResolveTheCellLayerWorkloadsShare)
{
    // weights() and a workload's weightPlanes() are one way into one
    // cell: whichever asks first builds, the other gets that object,
    // in both modes; neither touches the layer-workload counters.
    auto net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    const int layer_idx = 0;
    const dnn::LayerSpec &layer = net.layers[layer_idx];
    WorkloadCache cache;
    auto prefetched =
        cache.weights(synth, layer_idx, ActivationMode::Propagated);
    EXPECT_EQ(cache.misses(), 0);
    EXPECT_EQ(prefetched.get(),
              &cache.layer(synth, layer_idx, InputStream::Quant8,
                           ActivationMode::Propagated, 1)
                   ->weightPlanes(layer));
    expectSamePlanes(*prefetched, propagatedWeightPlanes(layer, 0x5eed));

    const WeightBrickPlanes &built =
        cache.layer(synth, layer_idx, InputStream::Fixed16Raw)
            ->weightPlanes(layer);
    EXPECT_EQ(&built, cache.weights(synth, layer_idx,
                                    ActivationMode::Synthetic)
                          .get());
    EXPECT_NE(&built, prefetched.get());
    EXPECT_EQ(cache.hits(), 0);
    EXPECT_EQ(cache.misses(), 2);
}

TEST(WorkloadCache, WeightPlanesOutliveTheCache)
{
    // A workload co-owns its layer's weight cell, so its weight planes
    // may be first built after the cache that handed it out is gone.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    const int layer_idx = 1;
    const dnn::LayerSpec &layer = net.layers[layer_idx];
    std::shared_ptr<const LayerWorkload> view;
    {
        WorkloadCache cache;
        view = cache.layer(synth, layer_idx, InputStream::Fixed16Raw);
    }
    expectSamePlanes(view->weightPlanes(layer), syntheticWeightPlanes(layer));
}

bool
sameTensor(const dnn::NeuronTensor &a, const dnn::NeuronTensor &b)
{
    return a.sizeX() == b.sizeX() && a.sizeY() == b.sizeY() &&
           a.sizeI() == b.sizeI() &&
           std::ranges::equal(a.flat(), b.flat());
}

TEST(WorkloadCache, ReleaseKeepsWhatWasHandedOut)
{
    // A workload, its built weight planes and a workload whose planes
    // were never asked for all outlive the release of their network;
    // the next request builds the entry again, equal to the first,
    // and counts a miss.
    auto net = dnn::makeTinyNetwork();
    dnn::ActivationSynthesizer synth(net, 0x5eed);
    const int layer_idx = 1;
    const dnn::LayerSpec &layer = net.layers[layer_idx];
    WorkloadCache cache;
    auto view = cache.layer(synth, layer_idx, InputStream::Fixed16Raw);
    const WeightBrickPlanes &planes = view->weightPlanes(layer);
    auto unbuilt = cache.layer(synth, layer_idx, InputStream::Quant8);
    auto held_synth = cache.synthesizer(net, 0x5eed);
    EXPECT_EQ(cache.misses(), 2);

    cache.release(net);
    EXPECT_TRUE(sameTensor(view->tensor(),
                           synth.synthesizeFixed16(layer_idx)));
    expectSamePlanes(planes, syntheticWeightPlanes(layer));
    EXPECT_EQ(&view->weightPlanes(layer), &planes);
    expectSamePlanes(unbuilt->weightPlanes(layer),
                     syntheticWeightPlanes(layer));
    EXPECT_EQ(held_synth->network().name, net.name);

    auto rebuilt = cache.layer(synth, layer_idx, InputStream::Fixed16Raw);
    EXPECT_NE(rebuilt.get(), view.get());
    EXPECT_TRUE(sameTensor(rebuilt->tensor(), view->tensor()));
    EXPECT_NE(&rebuilt->weightPlanes(layer), &planes);
    expectSamePlanes(rebuilt->weightPlanes(layer), planes);
    EXPECT_NE(cache.synthesizer(net, 0x5eed).get(), held_synth.get());
    EXPECT_EQ(cache.misses(), 3);
    EXPECT_EQ(cache.hits(), 0);
}

TEST(WorkloadCache, ReleaseDropsChainsAndSparesOtherNetworks)
{
    // Releasing one network drops its chains under every seed and
    // image, and nothing of another network, nor of another selection
    // sharing its name.
    auto all_net = dnn::makeTinyNetwork(dnn::LayerSelect::All);
    auto fc_net = dnn::makeTinyNetwork(dnn::LayerSelect::Fc);
    auto alexnet = dnn::makeAlexNet();
    dnn::ActivationSynthesizer tiny(all_net, 0x5eed);
    dnn::ActivationSynthesizer reseeded(all_net, 0xbeef);
    dnn::ActivationSynthesizer fc(fc_net, 0x5eed);
    dnn::ActivationSynthesizer alex(alexnet, 0x5eed);
    WorkloadCache cache;
    auto chain = cache.chain(tiny, 1);
    auto other_seed = cache.chain(reseeded);
    auto fc_view = cache.layer(fc, 0, InputStream::Fixed16Trimmed);
    auto alex_view = cache.layer(alex, 0, InputStream::Fixed16Raw);
    auto alex_weights =
        cache.weights(alex, 0, ActivationMode::Synthetic);
    auto alex_synth = cache.synthesizer(alexnet, 0x5eed);

    cache.release(all_net);
    EXPECT_EQ(cache.layer(fc, 0, InputStream::Fixed16Trimmed).get(),
              fc_view.get());
    EXPECT_EQ(cache.layer(alex, 0, InputStream::Fixed16Raw).get(),
              alex_view.get());
    EXPECT_EQ(cache.weights(alex, 0, ActivationMode::Synthetic).get(),
              alex_weights.get());
    EXPECT_EQ(cache.synthesizer(alexnet, 0x5eed).get(), alex_synth.get());
    EXPECT_EQ(cache.hits(), 2);

    auto again = cache.chain(tiny, 1);
    EXPECT_NE(again.get(), chain.get());
    ASSERT_EQ(again->inputs.size(), chain->inputs.size());
    for (size_t l = 0; l < chain->inputs.size(); l++)
        EXPECT_TRUE(sameTensor(again->inputs[l], chain->inputs[l])) << l;
    EXPECT_NE(cache.chain(reseeded).get(), other_seed.get());
}

TEST(WorkloadCache, ReleaseWhileWorkersResolveAnotherNetwork)
{
    // Workers resolve AlexNet's streams while the calling thread
    // builds, releases and rebuilds Tiny's: AlexNet keeps one entry
    // per key, and every Tiny round rebuilds equal bytes.
    auto tiny_net = dnn::makeTinyNetwork();
    auto alexnet = dnn::makeAlexNet();
    dnn::ActivationSynthesizer tiny(tiny_net, 0x5eed);
    dnn::ActivationSynthesizer alex(alexnet, 0x5eed);
    const dnn::NeuronTensor expected = tiny.synthesizeFixed16(0);
    WorkloadCache cache;
    const int requests = 24;
    std::vector<std::shared_ptr<const LayerWorkload>> views(requests);
    {
        util::ThreadPool pool(4);
        for (int t = 0; t < requests; t++)
            pool.submit([&cache, &alex, &views, t] {
                views[static_cast<size_t>(t)] =
                    cache.layer(alex, t % 2, InputStream::Fixed16Raw);
            });
        for (int round = 0; round < 8; round++) {
            auto view = cache.layer(tiny, 0, InputStream::Fixed16Raw);
            EXPECT_TRUE(sameTensor(view->tensor(), expected)) << round;
            cache.release(tiny_net);
        }
        pool.wait();
    }
    for (int t = 0; t < requests; t++)
        EXPECT_EQ(views[static_cast<size_t>(t)].get(),
                  views[static_cast<size_t>(t % 2)].get())
            << t;
    EXPECT_EQ(cache.misses(), 2 + 8);
    EXPECT_EQ(cache.hits(), requests - 2);
}

TEST(WorkloadCache, PalletSyncInvariantAcrossBlockCounts)
{
    // Pallet-block splitting must be exact: any inner task count
    // yields the serial result bit for bit.
    auto net = dnn::makeTinyNetwork();
    AccelConfig accel;
    SampleSpec sample{0}; // Exhaustive: every pallet.
    auto engine = models::builtinEngines().create(
        "pragmatic", {{"bits", "2"}});
    dnn::ActivationSynthesizer synth(net);

    NetworkResult serial = engine->runNetwork(
        net, WorkloadSource(synth), accel, sample,
        util::InnerExecutor());
    util::ThreadPool pool(4);
    for (int tasks : {2, 3, 8}) {
        NetworkResult split = engine->runNetwork(
            net, WorkloadSource(synth), accel, sample,
            util::InnerExecutor(&pool, tasks));
        ASSERT_EQ(serial.layers.size(), split.layers.size());
        for (size_t l = 0; l < serial.layers.size(); l++) {
            EXPECT_EQ(serial.layers[l].cycles,
                      split.layers[l].cycles)
                << tasks;
            EXPECT_EQ(serial.layers[l].effectualTerms,
                      split.layers[l].effectualTerms)
                << tasks;
            EXPECT_EQ(serial.layers[l].nmStallCycles,
                      split.layers[l].nmStallCycles)
                << tasks;
        }
    }
}

} // namespace
} // namespace sim
} // namespace pra
