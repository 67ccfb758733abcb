/**
 * @file
 * Tests pinning the model zoo against the paper's Tables I and II.
 */

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"

namespace pra {
namespace dnn {
namespace {

/** Number of layers of @p kind in @p net. */
int
countLayers(const Network &net, LayerKind kind)
{
    int count = 0;
    for (const auto &layer : net.layers)
        count += layer.kind == kind;
    return count;
}

/** The lower-case names makeNetworkByName() accepts, in paper order. */
std::vector<std::string>
networkNames()
{
    return {"alexnet", "nin", "googlenet", "vggm", "vggs", "vgg19"};
}

TEST(ModelZoo, SixNetworksInPaperOrder)
{
    auto nets = makeAllNetworks();
    ASSERT_EQ(nets.size(), 6u);
    EXPECT_EQ(nets[0].name, "AlexNet");
    EXPECT_EQ(nets[1].name, "NiN");
    EXPECT_EQ(nets[2].name, "GoogLeNet");
    EXPECT_EQ(nets[3].name, "VGG_M");
    EXPECT_EQ(nets[4].name, "VGG_S");
    EXPECT_EQ(nets[5].name, "VGG_19");
}

TEST(ModelZoo, AllNetworksValid)
{
    for (const auto &net : makeAllNetworks()) {
        EXPECT_TRUE(net.valid()) << net.name;
        EXPECT_GT(net.totalProducts(), 0) << net.name;
    }
}

TEST(ModelZoo, LayerCountsMatchTableII)
{
    EXPECT_EQ(makeAlexNet().layers.size(), 5u);
    EXPECT_EQ(makeNiN().layers.size(), 12u);
    EXPECT_EQ(makeVggM().layers.size(), 5u);
    EXPECT_EQ(makeVggS().layers.size(), 5u);
    EXPECT_EQ(makeVgg19().layers.size(), 16u);
    // GoogLeNet: stem conv + 2 conv2 layers + 9 inceptions x 6 convs.
    EXPECT_EQ(makeGoogLeNet().layers.size(), 3u + 9u * 6u);
}

TEST(ModelZoo, AlexNetPrecisionProfile)
{
    auto net = makeAlexNet();
    const int expected[5] = {9, 8, 5, 5, 7};
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(net.layers[i].profiledPrecision, expected[i]);
}

TEST(ModelZoo, NiNPrecisionProfile)
{
    auto net = makeNiN();
    const int expected[12] = {8, 8, 8, 9, 7, 8, 8, 9, 9, 8, 8, 8};
    for (int i = 0; i < 12; i++)
        EXPECT_EQ(net.layers[i].profiledPrecision, expected[i]);
}

TEST(ModelZoo, Vgg19PrecisionProfile)
{
    auto net = makeVgg19();
    const int expected[16] = {12, 12, 12, 11, 12, 10, 11, 11,
                              13, 12, 13, 13, 13, 13, 13, 13};
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(net.layers[i].profiledPrecision, expected[i]);
}

TEST(ModelZoo, AlexNetGeometry)
{
    auto net = makeAlexNet();
    EXPECT_EQ(net.layers[0].outX(), 55);
    EXPECT_EQ(net.layers[1].outX(), 27);
    EXPECT_EQ(net.layers[2].outX(), 13);
    // Known AlexNet conv MAC counts (within the conventional figures).
    EXPECT_NEAR(static_cast<double>(net.layers[0].products()),
                105e6, 2e6);
    EXPECT_NEAR(static_cast<double>(net.layers[1].products()),
                448e6, 3e6);
}

TEST(ModelZoo, TableITargetsStored)
{
    auto alex = makeAlexNet();
    EXPECT_DOUBLE_EQ(alex.targets.all16, 0.078);
    EXPECT_DOUBLE_EQ(alex.targets.nz16, 0.181);
    EXPECT_DOUBLE_EQ(alex.targets.all8, 0.314);
    EXPECT_DOUBLE_EQ(alex.targets.nz8, 0.443);
    EXPECT_DOUBLE_EQ(alex.targets.softwareBenefit, 0.23);
    auto vgg19 = makeVgg19();
    EXPECT_DOUBLE_EQ(vgg19.targets.all16, 0.127);
    EXPECT_DOUBLE_EQ(vgg19.targets.nz16, 0.242);
}

TEST(ModelZoo, ImpliedZeroFractionsAreSane)
{
    for (const auto &net : makeAllNetworks()) {
        double z16 = net.targets.zeroFraction16();
        double z8 = net.targets.zeroFraction8();
        EXPECT_GT(z16, 0.0) << net.name;
        EXPECT_LT(z16, 1.0) << net.name;
        EXPECT_GT(z8, 0.0) << net.name;
        EXPECT_LT(z8, 1.0) << net.name;
    }
}

TEST(ModelZoo, GoogLeNetInceptionShapesChain)
{
    auto net = makeGoogLeNet();
    // Each inception 3x3 conv consumes the 3x3_reduce output count.
    for (size_t i = 0; i + 1 < net.layers.size(); i++) {
        const auto &layer = net.layers[i];
        if (layer.name.find("3x3_reduce") != std::string::npos) {
            const auto &next = net.layers[i + 1];
            EXPECT_EQ(next.inputChannels, layer.numFilters)
                << layer.name;
        }
    }
}

TEST(ModelZoo, LookupByNameAndAliases)
{
    EXPECT_EQ(makeNetworkByName("alexnet").name, "AlexNet");
    EXPECT_EQ(makeNetworkByName("AlexNet").name, "AlexNet");
    EXPECT_EQ(makeNetworkByName("VGG_19").name, "VGG_19");
    EXPECT_EQ(makeNetworkByName("google").name, "GoogLeNet");
    EXPECT_EQ(makeNetworkByName("tiny").name, "Tiny");
    EXPECT_EQ(networkNames().size(), 6u);
    const auto all = makeAllNetworks();
    for (size_t i = 0; i < networkNames().size(); i++)
        EXPECT_EQ(makeNetworkByName(networkNames()[i]).name, all[i].name);
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeNetworkByName("resnet"), "unknown network");
}

TEST(ModelZoo, ParseNetworkListResolvesNamesInOrder)
{
    auto networks = parseNetworkList("tiny,,alexnet");
    ASSERT_EQ(networks.size(), 2u);
    EXPECT_EQ(networks[0].name, "Tiny");
    EXPECT_EQ(networks[1].name, "AlexNet");
    EXPECT_EQ(parseNetworkList("all").size(), makeAllNetworks().size());
    EXPECT_EQ(parseNetworkList("alexnet", LayerSelect::All)[0].layers.size(),
              makeNetworkByName("alexnet", LayerSelect::All).layers.size());
}

TEST(ModelZooDeathTest, ParseNetworkListRejectsEmptyAndUnknownLists)
{
    // An empty selection exits like every other bad flag (status 1),
    // instead of aborting later in the grid driver.
    EXPECT_EXIT(parseNetworkList(""), ::testing::ExitedWithCode(1),
                "no networks selected");
    EXPECT_EXIT(parseNetworkList(","), ::testing::ExitedWithCode(1),
                "no networks selected");
    EXPECT_EXIT(parseNetworkList("tiny,resnet"),
                ::testing::ExitedWithCode(1), "unknown network 'resnet'");
}

TEST(ModelZoo, TinyNetworkIsSmallAndValid)
{
    auto net = makeTinyNetwork();
    EXPECT_TRUE(net.valid());
    EXPECT_LT(net.totalProducts(), 10'000'000);
}

TEST(ModelZoo, DefaultSelectionIsConvOnly)
{
    // The historical conv-only workload must be byte-identical: the
    // default selection and an explicit Conv selection agree, and
    // neither contains an FC layer.
    for (const auto &net : makeAllNetworks()) {
        EXPECT_EQ(countLayers(net, LayerKind::FullyConnected), 0)
            << net.name;
    }
    auto imp = makeAlexNet();
    auto exp = makeAlexNet(LayerSelect::Conv);
    ASSERT_EQ(imp.layers.size(), exp.layers.size());
    for (size_t i = 0; i < imp.layers.size(); i++)
        EXPECT_EQ(imp.layers[i].name, exp.layers[i].name);
}

TEST(ModelZoo, FcTailLayerCounts)
{
    // AlexNet and the VGGs gain their three-layer FC tails plus
    // their interstitial pools; NiN and GoogLeNet use global pooling
    // instead of an FC tail (NiN: 3 interstitial + 1 global pool;
    // GoogLeNet: stem pool1/pool2, one 3x3/1 pool inside each of the
    // 9 inception modules, pool3/pool4 between module groups, and
    // the terminal global average pool).
    EXPECT_EQ(makeAlexNet(LayerSelect::All).layers.size(), 11u);
    EXPECT_EQ(makeVggM(LayerSelect::All).layers.size(), 11u);
    EXPECT_EQ(makeVggS(LayerSelect::All).layers.size(), 11u);
    EXPECT_EQ(makeVgg19(LayerSelect::All).layers.size(), 24u);
    EXPECT_EQ(makeNiN(LayerSelect::All).layers.size(), 16u);
    EXPECT_EQ(makeGoogLeNet(LayerSelect::All).layers.size(),
              3u + 9u * 7u + 2u + 2u + 1u);
    EXPECT_EQ(makeTinyNetwork(LayerSelect::All).layers.size(), 4u);

    EXPECT_EQ(makeAlexNet(LayerSelect::Fc).layers.size(), 3u);
    // Global-pooling networks contribute nothing under Fc.
    EXPECT_TRUE(makeNiN(LayerSelect::Fc).layers.empty());
    EXPECT_TRUE(makeGoogLeNet(LayerSelect::Fc).layers.empty());
}

TEST(ModelZoo, FcSelectionSkipsGlobalPoolingNetworks)
{
    // makeAllNetworks(Fc) must not hand out empty workloads: NiN and
    // GoogLeNet are skipped, the four FC-tailed networks remain.
    auto nets = makeAllNetworks(LayerSelect::Fc);
    ASSERT_EQ(nets.size(), 4u);
    EXPECT_EQ(nets[0].name, "AlexNet");
    EXPECT_EQ(nets[1].name, "VGG_M");
    EXPECT_EQ(nets[2].name, "VGG_S");
    EXPECT_EQ(nets[3].name, "VGG_19");
    for (const auto &net : nets) {
        EXPECT_TRUE(net.valid()) << net.name;
        EXPECT_EQ(countLayers(net, LayerKind::Conv), 0) << net.name;
    }
    // Conv and All keep all six.
    EXPECT_EQ(makeAllNetworks(LayerSelect::Conv).size(), 6u);
    EXPECT_EQ(makeAllNetworks(LayerSelect::All).size(), 6u);
}

TEST(ModelZoo, FcSelectionOfPoolingNetworkByNameIsFatal)
{
    EXPECT_DEATH(makeNetworkByName("nin", LayerSelect::Fc),
                 "no layers under the requested");
    EXPECT_DEATH(makeNetworkByName("googlenet", LayerSelect::Fc),
                 "no layers under the requested");
}

TEST(ModelZoo, FcParameterCountsMatchPublishedDefinitions)
{
    // Published AlexNet FC shapes: fc6 9216 -> 4096, fc7 4096 ->
    // 4096, fc8 4096 -> 1000. For an FC layer products() ==
    // synapses() == the parameter count.
    auto alex = makeAlexNet(LayerSelect::Fc);
    ASSERT_EQ(alex.layers.size(), 3u);
    EXPECT_EQ(alex.layers[0].name, "fc6");
    EXPECT_EQ(alex.layers[0].synapses(), 9216LL * 4096);
    EXPECT_EQ(alex.layers[1].synapses(), 4096LL * 4096);
    EXPECT_EQ(alex.layers[2].synapses(), 4096LL * 1000);
    for (const auto &layer : alex.layers) {
        EXPECT_EQ(layer.kind, LayerKind::FullyConnected) << layer.name;
        EXPECT_EQ(layer.products(), layer.synapses()) << layer.name;
    }

    // VGG-M/S: fc6 consumes the 6x6x512 pool5 output; VGG-19 the
    // 7x7x512 one.
    EXPECT_EQ(makeVggM(LayerSelect::Fc).layers[0].synapses(),
              18432LL * 4096);
    EXPECT_EQ(makeVggS(LayerSelect::Fc).layers[0].synapses(),
              18432LL * 4096);
    auto vgg19 = makeVgg19(LayerSelect::Fc);
    EXPECT_EQ(vgg19.layers[0].synapses(), 25088LL * 4096);
    EXPECT_EQ(vgg19.layers[1].synapses(), 4096LL * 4096);
    EXPECT_EQ(vgg19.layers[2].synapses(), 4096LL * 1000);

    // AlexNet's FC tail dominates its parameter budget (~58.6M vs
    // ~3.7M conv) — the motivation for pricing FC at all.
    int64_t fc_params = 0;
    for (const auto &layer : alex.layers)
        fc_params += layer.synapses();
    EXPECT_EQ(fc_params, 9216LL * 4096 + 4096LL * 4096 + 4096LL * 1000);
    int64_t conv_params = 0;
    for (const auto &layer : makeAlexNet(LayerSelect::Conv).layers)
        conv_params += layer.synapses();
    EXPECT_GT(fc_params, 10 * conv_params);
}

TEST(ModelZoo, FcSelectionsAreValidNetworks)
{
    for (auto select : {LayerSelect::Fc, LayerSelect::All}) {
        for (const auto &net : makeAllNetworks(select)) {
            EXPECT_TRUE(net.valid()) << net.name;
            EXPECT_GT(net.totalProducts(), 0) << net.name;
        }
    }
    // All == Conv + Fc, in execution order with the FC tail last.
    auto all = makeAlexNet(LayerSelect::All);
    EXPECT_EQ(countLayers(all, LayerKind::Conv), 5);
    EXPECT_EQ(countLayers(all, LayerKind::FullyConnected), 3);
    EXPECT_EQ(all.layers.front().name, "conv1");
    EXPECT_EQ(all.layers.back().name, "fc8");
}

TEST(ModelZoo, ParseLayerSelect)
{
    EXPECT_EQ(parseLayerSelect("conv"), LayerSelect::Conv);
    EXPECT_EQ(parseLayerSelect("fc"), LayerSelect::Fc);
    EXPECT_EQ(parseLayerSelect("all"), LayerSelect::All);
}

TEST(ModelZoo, ParseLayerSelectRejectsUnknown)
{
    EXPECT_DEATH(parseLayerSelect("convs"), "conv, fc or all");
}

TEST(ModelZoo, AllSelectionsArePoolBridgedPipelines)
{
    // Satellite: propagated shapes must chain. Every network's All
    // selection — pools included — must be a shape-consistent
    // pipeline end to end (each layer's input is its producers'
    // output, FC flattening included).
    for (const auto &net : makeAllNetworks(LayerSelect::All)) {
        std::string why;
        EXPECT_TRUE(net.chainConsistent(&why)) << net.name << ": "
                                               << why;
        EXPECT_GT(countLayers(net, LayerKind::Pool), 0) << net.name;
    }
    auto tiny = makeTinyNetwork(LayerSelect::All);
    std::string why;
    EXPECT_TRUE(tiny.chainConsistent(&why)) << why;
}

TEST(ModelZoo, PoolShapesBridgeThePublishedGeometry)
{
    // AlexNet pool5: 13x13x256 -> the 6x6x256 fc6 consumes.
    auto alex = makeAlexNet(LayerSelect::All);
    const auto &pool5 = alex.layers[7];
    ASSERT_EQ(pool5.name, "pool5");
    EXPECT_EQ(pool5.kind, LayerKind::Pool);
    EXPECT_EQ(pool5.outX(), 6);
    EXPECT_EQ(pool5.outY(), 6);
    EXPECT_EQ(pool5.outChannels(), 256);

    // The published networks mix pooling-rounding conventions:
    // GoogLeNet pool1 needs ceil (112 -> 56), VGG-M pool2 needs ceil
    // (26 -> 13), while VGG-S pool1 needs floor (109/3 -> 36) and
    // its pool5 ceil (17/3 -> 6).
    auto google = makeGoogLeNet(LayerSelect::All);
    ASSERT_EQ(google.layers[1].name, "pool1/3x3_s2");
    EXPECT_EQ(google.layers[1].outX(), 56);
    auto vggm = makeVggM(LayerSelect::All);
    ASSERT_EQ(vggm.layers[3].name, "pool2");
    EXPECT_EQ(vggm.layers[3].outX(), 13);
    auto vggs = makeVggS(LayerSelect::All);
    ASSERT_EQ(vggs.layers[1].name, "pool1");
    EXPECT_EQ(vggs.layers[1].outX(), 36);
    ASSERT_EQ(vggs.layers[7].name, "pool5");
    EXPECT_EQ(vggs.layers[7].outX(), 6);

    // NiN and GoogLeNet end in global pooling: one spatial output.
    auto nin = makeNiN(LayerSelect::All);
    const auto &nin_tail = nin.layers.back();
    EXPECT_EQ(nin_tail.kind, LayerKind::Pool);
    EXPECT_EQ(nin_tail.poolOp, PoolOp::Avg);
    EXPECT_EQ(nin_tail.outX(), 1);
    EXPECT_EQ(nin_tail.outY(), 1);
    const auto &google_tail = google.layers.back();
    EXPECT_EQ(google_tail.kind, LayerKind::Pool);
    EXPECT_EQ(google_tail.poolOp, PoolOp::Avg);
    EXPECT_EQ(google_tail.outX(), 1);
    EXPECT_EQ(google_tail.outChannels(), 1024);
}

TEST(ModelZoo, PoolsNeverReshuffleThePricedStreams)
{
    // Priced-layer ordinals ignore pools, so conv/fc streams are
    // invariant to the structural pool layers: conv-only lists are
    // unchanged and All-selection ordinals match them layer by
    // layer.
    auto conv_only = makeAlexNet(LayerSelect::Conv);
    ASSERT_EQ(conv_only.layers.size(), 5u);
    for (size_t i = 0; i < conv_only.layers.size(); i++)
        EXPECT_EQ(conv_only.layers[i].ordinal,
                  static_cast<int>(i));
    auto all = makeAlexNet(LayerSelect::All);
    int expected = 0;
    for (const auto &layer : all.layers) {
        if (!layer.priced()) {
            EXPECT_EQ(layer.ordinal, -1) << layer.name;
            continue;
        }
        EXPECT_EQ(layer.ordinal, expected++) << layer.name;
    }
    EXPECT_EQ(expected, 8);
}

TEST(ModelZoo, OnlyTheConvolutionalFrontReadsTheImage)
{
    // LayerSpec::readsImage marks exactly the layers the rule it
    // replaced did (list index 0 and convolutional) on every zoo
    // network under every selection, with or without the index: the
    // zoo stamps ordinals, so an engine that sees no index decides
    // the same. FC selections start at a pooled ReLU output.
    for (LayerSelect select :
         {LayerSelect::Conv, LayerSelect::Fc, LayerSelect::All}) {
        std::vector<Network> nets = makeAllNetworks(select);
        nets.push_back(makeTinyNetwork(select));
        for (const auto &net : nets) {
            int image_layers = 0;
            for (size_t i = 0; i < net.layers.size(); i++) {
                const LayerSpec &layer = net.layers[i];
                const bool rule =
                    i == 0 && layer.kind == LayerKind::Conv;
                EXPECT_EQ(layer.readsImage(static_cast<int>(i)), rule)
                    << net.name << " " << layer.name;
                EXPECT_EQ(layer.readsImage(), rule)
                    << net.name << " " << layer.name;
                image_layers += rule;
            }
            EXPECT_EQ(image_layers, select == LayerSelect::Fc ? 0 : 1)
                << net.name;
        }
    }
}

TEST(ModelZoo, ChainCheckCatchesShapeBreaks)
{
    // The gate: a network with a pool (pipeline-shaped) whose shapes
    // do not chain must fail valid(); the same broken geometry
    // without pools/producers is exempt (synthetic workloads price
    // layers independently — the conv-only zoo relies on that).
    Network broken = makeTinyNetwork(LayerSelect::All);
    broken.layers[3] =
        LayerSpec::fullyConnected("fc1", 999, 16, 7); // Wrong width.
    broken.layers[3].ordinal = 2;
    EXPECT_FALSE(broken.chainConsistent());
    EXPECT_FALSE(broken.valid());

    Network exempt = makeAlexNet(LayerSelect::Conv); // Gaps, no pools.
    EXPECT_FALSE(exempt.chainConsistent());
    EXPECT_TRUE(exempt.valid());
}

TEST(ModelZoo, LookupByNameForwardsSelection)
{
    EXPECT_EQ(makeNetworkByName("alexnet", LayerSelect::All)
                  .layers.size(),
              11u);
    EXPECT_EQ(makeNetworkByName("tiny", LayerSelect::Fc)
                  .layers.size(),
              1u);
}

} // namespace
} // namespace dnn
} // namespace pra
