#include "dnn/model_zoo.h"

#include <algorithm>
#include <cctype>

#include "util/args.h"
#include "util/check.h"
#include "util/logging.h"

namespace pra {
namespace dnn {

namespace {

/**
 * Shorthand builder for one conv layer spec. @p wprec is the
 * companion profiled *weight* precision (DNNsim-style per-layer
 * weight profiles; only weight-aware engines read it): front layers
 * need a wider magnitude window than the mid-network 8-bit norm.
 */
LayerSpec
conv(std::string name, int in_x, int in_y, int channels, int f_x, int f_y,
     int filters, int stride, int pad, int precision, int wprec = 8)
{
    LayerSpec spec;
    spec.name = std::move(name);
    spec.inputX = in_x;
    spec.inputY = in_y;
    spec.inputChannels = channels;
    spec.filterX = f_x;
    spec.filterY = f_y;
    spec.numFilters = filters;
    spec.stride = stride;
    spec.pad = pad;
    spec.profiledPrecision = precision;
    spec.profiledWeightPrecision = wprec;
    PRA_CHECK(spec.valid(),
                         "model_zoo: malformed layer " + spec.name);
    return spec;
}

/**
 * Shorthand builder for one fully-connected layer in its canonical
 * 1x1xI lowered form. The paper's Table II profiles conv layers only;
 * the FC precisions here are the companion profiled values in the
 * same style (DNNsim-class simulators carry per-layer InnerProduct
 * precisions the same way).
 */
LayerSpec
fc(std::string name, int inputs, int outputs, int precision,
   int wprec = 8)
{
    LayerSpec spec =
        LayerSpec::fullyConnected(std::move(name), inputs, outputs,
                                  precision, wprec);
    PRA_CHECK(spec.valid(),
                         "model_zoo: malformed layer " + spec.name);
    return spec;
}

/**
 * Shorthand builder for one pooling layer (square window). Pools are
 * structural — never priced — so they carry no Table II precision;
 * they exist so the propagated-activation pipeline can bridge the
 * published shapes between priced layers. @p ceil_mode selects
 * Caffe-style ceil output rounding where the published shapes need it
 * (the networks mix conventions; see LayerSpec::poolCeil).
 */
LayerSpec
pool(std::string name, int in_x, int in_y, int channels, int window,
     int stride, PoolOp op = PoolOp::Max, int pad = 0,
     bool ceil_mode = false)
{
    LayerSpec spec = LayerSpec::pool(std::move(name), in_x, in_y,
                                     channels, window, stride, op, pad,
                                     ceil_mode);
    PRA_CHECK(spec.valid(),
                         "model_zoo: malformed layer " + spec.name);
    return spec;
}

/**
 * Stamp each priced layer's ordinal (its position among the priced
 * layers of the full network — pools don't count, so inserting a
 * structural pool never reshuffles the streams of priced layers),
 * then drop the layers the selection excludes (order is preserved).
 * Filtering invalidates producer indices, so non-All selections clear
 * them; synthetic streams never read producers anyway. Ordinals keep
 * synthesized streams selection-invariant — see LayerSpec::ordinal.
 */
Network
applySelect(Network net, LayerSelect select)
{
    int ordinal = 0;
    for (auto &layer : net.layers)
        layer.ordinal = layer.priced() ? ordinal++ : -1;
    if (select == LayerSelect::All)
        return net;
    std::vector<LayerSpec> kept;
    kept.reserve(net.layers.size());
    for (auto &layer : net.layers)
        if (layerSelected(layer.kind, select)) {
            layer.producers.clear();
            kept.push_back(std::move(layer));
        }
    net.layers = std::move(kept);
    return net;
}

/**
 * Append @p spec with an explicit producer list (empty = previous
 * layer) and return its index in the full layer list — the handle
 * later layers use to declare who they consume.
 */
int
addLayer(std::vector<LayerSpec> &layers, LayerSpec spec,
         std::vector<int> producers = {})
{
    spec.producers = std::move(producers);
    layers.push_back(std::move(spec));
    return static_cast<int>(layers.size()) - 1;
}

/**
 * Append one GoogLeNet inception module: six convolutions (the
 * paper's Table II groups them under one precision) plus the
 * module-internal 3x3/1 max pool feeding the pool-projection branch.
 * @p input is the producer set of the module input (the previous
 * pool, or the previous module's four branch outputs, which
 * concatenate channel-wise). Returns the four branch outputs in
 * concatenation order: 1x1, 3x3, 5x5, pool_proj.
 */
std::vector<int>
addInception(std::vector<LayerSpec> &layers, const std::string &name,
             std::vector<int> input, int size, int channels, int n1x1,
             int n3x3red, int n3x3, int n5x5red, int n5x5,
             int pool_proj, int precision, int wprec)
{
    int b1 = addLayer(layers,
                      conv(name + "/1x1", size, size, channels,
                           1, 1, n1x1, 1, 0, precision, wprec),
                      input);
    int r3 = addLayer(layers,
                      conv(name + "/3x3_reduce", size, size, channels,
                           1, 1, n3x3red, 1, 0, precision, wprec),
                      input);
    int b3 = addLayer(layers,
                      conv(name + "/3x3", size, size, n3x3red,
                           3, 3, n3x3, 1, 1, precision, wprec),
                      {r3});
    int r5 = addLayer(layers,
                      conv(name + "/5x5_reduce", size, size, channels,
                           1, 1, n5x5red, 1, 0, precision, wprec),
                      input);
    int b5 = addLayer(layers,
                      conv(name + "/5x5", size, size, n5x5red,
                           5, 5, n5x5, 1, 2, precision, wprec),
                      {r5});
    int pp = addLayer(layers,
                      pool(name + "/pool", size, size, channels, 3, 1,
                           PoolOp::Max, 1),
                      input);
    int bp = addLayer(layers,
                      conv(name + "/pool_proj", size, size, channels,
                           1, 1, pool_proj, 1, 0, precision, wprec),
                      {pp});
    return {b1, b3, b5, bp};
}

} // namespace

Network
makeAlexNet(LayerSelect select)
{
    Network net;
    net.name = "AlexNet";
    // Table I / Table V calibration targets.
    net.targets = {0.078, 0.181, 0.314, 0.443, 0.23};
    // Table II precision profile: 9-8-5-5-7. Pools bridge the
    // published shapes (pool5: 13x13x256 -> the 6x6x256 fc6 input).
    net.layers = {
        conv("conv1", 227, 227, 3, 11, 11, 96, 4, 0, 9, 10),
        pool("pool1", 55, 55, 96, 3, 2),
        conv("conv2", 27, 27, 96, 5, 5, 256, 1, 2, 8),
        pool("pool2", 27, 27, 256, 3, 2),
        conv("conv3", 13, 13, 256, 3, 3, 384, 1, 1, 5),
        conv("conv4", 13, 13, 384, 3, 3, 384, 1, 1, 5),
        conv("conv5", 13, 13, 384, 3, 3, 256, 1, 1, 7),
        pool("pool5", 13, 13, 256, 3, 2),
        // FC tail: fc6 consumes the 6x6x256 pool5 output.
        fc("fc6", 6 * 6 * 256, 4096, 10, 9),
        fc("fc7", 4096, 4096, 9, 9),
        fc("fc8", 4096, 1000, 9, 10),
    };
    return applySelect(std::move(net), select);
}

Network
makeNiN(LayerSelect select)
{
    // NiN has no FC tail at all: cccp8's 1000 feature maps feed a
    // global average pooling layer directly (its "fully-connected"
    // role is played by the cccp 1x1 convolutions above). Under an
    // Fc selection it therefore contributes no layers.
    Network net;
    net.name = "NiN";
    net.targets = {0.104, 0.221, 0.271, 0.374, 0.10};
    // Table II: 8-8-8-9-7-8-8-9-9-8-8-8.
    net.layers = {
        conv("conv1", 227, 227, 3, 11, 11, 96, 4, 0, 8, 10),
        conv("cccp1", 55, 55, 96, 1, 1, 96, 1, 0, 8),
        conv("cccp2", 55, 55, 96, 1, 1, 96, 1, 0, 8),
        pool("pool1", 55, 55, 96, 3, 2),
        conv("conv2", 27, 27, 96, 5, 5, 256, 1, 2, 9, 9),
        conv("cccp3", 27, 27, 256, 1, 1, 256, 1, 0, 7),
        conv("cccp4", 27, 27, 256, 1, 1, 256, 1, 0, 8),
        pool("pool2", 27, 27, 256, 3, 2),
        conv("conv3", 13, 13, 256, 3, 3, 384, 1, 1, 8),
        conv("cccp5", 13, 13, 384, 1, 1, 384, 1, 0, 9),
        conv("cccp6", 13, 13, 384, 1, 1, 384, 1, 0, 9),
        pool("pool3", 13, 13, 384, 3, 2),
        conv("conv4", 6, 6, 384, 3, 3, 1024, 1, 1, 8),
        conv("cccp7", 6, 6, 1024, 1, 1, 1024, 1, 0, 8),
        conv("cccp8", 6, 6, 1024, 1, 1, 1000, 1, 0, 8),
        // Global average pooling stands in for the FC tail.
        pool("pool4", 6, 6, 1000, 6, 1, PoolOp::Avg),
    };
    return applySelect(std::move(net), select);
}

Network
makeGoogLeNet(LayerSelect select)
{
    // GoogLeNet ends in global average pooling; its only inner
    // product (loss3/classifier, 1024 -> 1000) is outside the
    // paper's Table II precision groups, so the zoo omits it and
    // an Fc selection contributes no layers. The inception modules
    // branch: each consumes its predecessor's four concatenated
    // branch outputs, expressed through explicit producer lists.
    Network net;
    net.name = "GoogLeNet";
    net.targets = {0.064, 0.190, 0.268, 0.426, 0.18};
    // Table II groups: 10-8-10-9-8-10-9-8-9-10-7 for
    // conv1, conv2 block, inception 3a,3b,4a,4b,4c,4d,4e,5a,5b.
    auto &layers = net.layers;
    addLayer(layers, conv("conv1/7x7_s2", 224, 224, 3,
                          7, 7, 64, 2, 3, 10, 10));
    int p1 = addLayer(layers, pool("pool1/3x3_s2", 112, 112, 64, 3, 2,
                                   PoolOp::Max, 0, true));
    int c2r = addLayer(layers, conv("conv2/3x3_reduce", 56, 56, 64,
                                    1, 1, 64, 1, 0, 8, 9),
                       {p1});
    int c2 = addLayer(layers, conv("conv2/3x3", 56, 56, 64,
                                   3, 3, 192, 1, 1, 8, 9),
                      {c2r});
    int p2 = addLayer(layers, pool("pool2/3x3_s2", 56, 56, 192, 3, 2,
                                   PoolOp::Max, 0, true),
                      {c2});
    auto m3a = addInception(layers, "inception_3a", {p2}, 28, 192,
                            64, 96, 128, 16, 32, 32, 10, 9);
    auto m3b = addInception(layers, "inception_3b", m3a, 28, 256,
                            128, 128, 192, 32, 96, 64, 9, 8);
    int p3 = addLayer(layers, pool("pool3/3x3_s2", 28, 28, 480, 3, 2,
                                   PoolOp::Max, 0, true),
                      m3b);
    auto m4a = addInception(layers, "inception_4a", {p3}, 14, 480,
                            192, 96, 208, 16, 48, 64, 8, 8);
    auto m4b = addInception(layers, "inception_4b", m4a, 14, 512,
                            160, 112, 224, 24, 64, 64, 10, 8);
    auto m4c = addInception(layers, "inception_4c", m4b, 14, 512,
                            128, 128, 256, 24, 64, 64, 9, 8);
    auto m4d = addInception(layers, "inception_4d", m4c, 14, 512,
                            112, 144, 288, 32, 64, 64, 8, 8);
    auto m4e = addInception(layers, "inception_4e", m4d, 14, 528,
                            256, 160, 320, 32, 128, 128, 9, 8);
    int p4 = addLayer(layers, pool("pool4/3x3_s2", 14, 14, 832, 3, 2,
                                   PoolOp::Max, 0, true),
                      m4e);
    auto m5a = addInception(layers, "inception_5a", {p4}, 7, 832,
                            256, 160, 320, 32, 128, 128, 10, 9);
    auto m5b = addInception(layers, "inception_5b", m5a, 7, 832,
                            384, 192, 384, 48, 128, 128, 7, 9);
    // Global average pooling closes the network (no FC tail).
    addLayer(layers, pool("pool5/7x7_s1", 7, 7, 1024, 7, 1,
                          PoolOp::Avg),
             m5b);
    return applySelect(std::move(net), select);
}

Network
makeVggM(LayerSelect select)
{
    Network net;
    net.name = "VGG_M";
    net.targets = {0.051, 0.165, 0.384, 0.474, 0.22};
    // Table II: 7-7-7-8-7. Pool shapes follow Chatfield et al.:
    // pool2 needs ceil rounding (26 -> 13), pool1/pool5 floor.
    net.layers = {
        conv("conv1", 224, 224, 3, 7, 7, 96, 2, 0, 7, 9),
        pool("pool1", 109, 109, 96, 3, 2),
        conv("conv2", 54, 54, 96, 5, 5, 256, 2, 1, 7),
        pool("pool2", 26, 26, 256, 3, 2, PoolOp::Max, 0, true),
        conv("conv3", 13, 13, 256, 3, 3, 512, 1, 1, 7),
        conv("conv4", 13, 13, 512, 3, 3, 512, 1, 1, 8),
        conv("conv5", 13, 13, 512, 3, 3, 512, 1, 1, 7),
        pool("pool5", 13, 13, 512, 3, 2),
        // FC tail (Chatfield et al.): full6/7/8 off the 6x6x512 pool5.
        fc("fc6", 6 * 6 * 512, 4096, 10, 9),
        fc("fc7", 4096, 4096, 9, 9),
        fc("fc8", 4096, 1000, 9, 10),
    };
    return applySelect(std::move(net), select);
}

Network
makeVggS(LayerSelect select)
{
    Network net;
    net.name = "VGG_S";
    net.targets = {0.057, 0.167, 0.343, 0.460, 0.21};
    // Table II: 7-8-9-7-9. VGG-S pools: 3x3/3 front (floor), 2x2/2
    // middle, 3x3/3 tail (ceil: 17 -> 6), per Chatfield et al.
    net.layers = {
        conv("conv1", 224, 224, 3, 7, 7, 96, 2, 0, 7, 9),
        pool("pool1", 109, 109, 96, 3, 3),
        conv("conv2", 36, 36, 96, 5, 5, 256, 1, 1, 8),
        pool("pool2", 34, 34, 256, 2, 2),
        conv("conv3", 17, 17, 256, 3, 3, 512, 1, 1, 9),
        conv("conv4", 17, 17, 512, 3, 3, 512, 1, 1, 7),
        conv("conv5", 17, 17, 512, 3, 3, 512, 1, 1, 9),
        pool("pool5", 17, 17, 512, 3, 3, PoolOp::Max, 0, true),
        // FC tail (Chatfield et al.): same shape as VGG-M's.
        fc("fc6", 6 * 6 * 512, 4096, 10, 9),
        fc("fc7", 4096, 4096, 9, 9),
        fc("fc8", 4096, 1000, 9, 10),
    };
    return applySelect(std::move(net), select);
}

Network
makeVgg19(LayerSelect select)
{
    Network net;
    net.name = "VGG_19";
    net.targets = {0.127, 0.242, 0.165, 0.291, 0.19};
    // Table II: 12-12-12-11-12-10-11-11-13-12-13-13-13-13-13-13.
    const int prec[16] = {12, 12, 12, 11, 12, 10, 11, 11,
                          13, 12, 13, 13, 13, 13, 13, 13};
    struct Stage { int size; int in; int out; int count; int wprec; };
    const Stage stages[5] = {
        {224, 3, 64, 2, 9},
        {112, 64, 128, 2, 8},
        {56, 128, 256, 4, 8},
        {28, 256, 512, 4, 8},
        {14, 512, 512, 4, 8},
    };
    int idx = 0;
    for (int s = 0; s < 5; s++) {
        int channels = stages[s].in;
        for (int c = 0; c < stages[s].count; c++) {
            net.layers.push_back(conv(
                "conv" + std::to_string(s + 1) + "_" +
                    std::to_string(c + 1),
                stages[s].size, stages[s].size, channels,
                3, 3, stages[s].out, 1, 1, prec[idx++],
                stages[s].wprec));
            channels = stages[s].out;
        }
        // Every stage ends in a 2x2/2 max pool (all divisions exact).
        net.layers.push_back(pool("pool" + std::to_string(s + 1),
                                  stages[s].size, stages[s].size,
                                  stages[s].out, 2, 2));
    }
    PRA_CHECK(idx == 16, "VGG19 precision list mismatch");
    // FC tail (Simonyan & Zisserman): fc6 off the 7x7x512 pool5.
    net.layers.push_back(fc("fc6", 7 * 7 * 512, 4096, 11, 10));
    net.layers.push_back(fc("fc7", 4096, 4096, 10, 10));
    net.layers.push_back(fc("fc8", 4096, 1000, 10, 11));
    return applySelect(std::move(net), select);
}

std::vector<Network>
makeAllNetworks(LayerSelect select)
{
    std::vector<Network> all = {makeAlexNet(select), makeNiN(select),
                                makeGoogLeNet(select), makeVggM(select),
                                makeVggS(select), makeVgg19(select)};
    // A selection can leave a network with nothing to contribute
    // (NiN and GoogLeNet have no FC layers): skip it rather than
    // hand callers an empty workload mislabeled as that network.
    std::vector<Network> selected;
    selected.reserve(all.size());
    for (auto &net : all)
        if (!net.layers.empty())
            selected.push_back(std::move(net));
    return selected;
}

std::vector<Network>
parseNetworkList(const std::string &list, LayerSelect select)
{
    if (list == "all")
        return makeAllNetworks(select);
    std::vector<Network> networks;
    for (const auto &name : util::splitList(list))
        networks.push_back(makeNetworkByName(name, select));
    if (networks.empty())
        util::fatal("no networks selected");
    return networks;
}

Network
makeNetworkByName(const std::string &name, LayerSelect select)
{
    std::string key;
    for (char ch : name)
        if (ch != '_' && ch != '-' && ch != ' ')
            key += static_cast<char>(std::tolower(ch));
    Network net;
    if (key == "alexnet")
        net = makeAlexNet(select);
    else if (key == "nin")
        net = makeNiN(select);
    else if (key == "googlenet" || key == "google")
        net = makeGoogLeNet(select);
    else if (key == "vggm")
        net = makeVggM(select);
    else if (key == "vggs")
        net = makeVggS(select);
    else if (key == "vgg19")
        net = makeVgg19(select);
    else if (key == "tiny")
        net = makeTinyNetwork(select);
    else
        util::fatal("unknown network '" + name + "'");
    // An explicit request for a network the selection empties out
    // must fail loudly, not run a zero-layer workload.
    if (net.layers.empty())
        util::fatal("network '" + net.name +
                    "' has no layers under the requested --layers "
                    "selection (it ends in global pooling, not an FC "
                    "tail)");
    return net;
}

LayerSelect
parseLayerSelect(const std::string &text)
{
    if (text == "conv")
        return LayerSelect::Conv;
    if (text == "fc")
        return LayerSelect::Fc;
    if (text == "all")
        return LayerSelect::All;
    util::fatal("--layers must be conv, fc or all (got '" + text +
                "')");
}

Network
makeTinyNetwork(LayerSelect select)
{
    Network net;
    net.name = "Tiny";
    net.targets = {0.08, 0.18, 0.31, 0.44, 0.19};
    net.layers = {
        conv("conv1", 12, 12, 8, 3, 3, 24, 1, 1, 8),
        conv("conv2", 12, 12, 24, 3, 3, 32, 1, 0, 7),
        // A 2x2/2 pool bridges conv2's 10x10x32 output into the tiny
        // fc tail, so smoke-sized propagated runs cross a real pool.
        pool("pool1", 10, 10, 32, 2, 2),
        fc("fc1", 5 * 5 * 32, 16, 7),
    };
    return applySelect(std::move(net), select);
}

} // namespace dnn
} // namespace pra
