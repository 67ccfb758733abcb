/**
 * @file
 * The six networks of the paper's evaluation (Section VI-A):
 * AlexNet, NiN, GoogLeNet, VGG-M, VGG-S and VGG-19.
 *
 * Layer geometries follow the published network definitions; each
 * layer carries its per-layer neuron precision from the paper's
 * Table II, and each network carries the Table I / Table V bit
 * statistics used to calibrate the synthetic activation stream.
 * GoogLeNet's convolutions are grouped into the 11 precision groups of
 * Table II (stem conv, conv2 block, nine inception modules).
 *
 * Networks are no longer conv-only: each builder takes a LayerSelect
 * choosing which layer kinds to include. The default, Conv, returns
 * exactly the paper's conv-layer workload (byte-identical results to
 * the historical conv-only zoo); Fc/All add the real fully-connected
 * tails (AlexNet fc6-fc8, the VGG fc layers) in their canonical
 * 1x1xI lowered form. NiN and GoogLeNet replace FC tails with global
 * pooling, so an Fc selection leaves them with no layers: builders
 * return them empty, makeAllNetworks() skips them, and
 * makeNetworkByName() rejects the combination loudly.
 *
 * Under All, each network additionally carries its published
 * interstitial (and, for NiN/GoogLeNet, terminal global-average)
 * pooling layers. Pools are structural: no engine prices them, but
 * they make the layer list a shape-consistent pipeline
 * (Network::chainConsistent()) the propagated-activation mode can
 * run end-to-end — e.g. AlexNet conv1 .. pool5 .. fc8. GoogLeNet's
 * inception branches are expressed through explicit per-layer
 * producer lists (LayerSpec::producers), with the four branch
 * outputs of each module concatenating channel-wise into the next
 * consumer. Priced layers' synthesized streams are invariant to the
 * pools: stream seeding uses priced-only ordinals.
 */

#pragma once

#include <string>
#include <vector>

#include "dnn/network.h"

namespace pra {
namespace dnn {

Network makeAlexNet(LayerSelect select = LayerSelect::Conv);
Network makeNiN(LayerSelect select = LayerSelect::Conv);
Network makeGoogLeNet(LayerSelect select = LayerSelect::Conv);
Network makeVggM(LayerSelect select = LayerSelect::Conv);
Network makeVggS(LayerSelect select = LayerSelect::Conv);
Network makeVgg19(LayerSelect select = LayerSelect::Conv);

/**
 * The evaluation networks in the paper's reporting order. Networks
 * the selection leaves empty (NiN and GoogLeNet under Fc) are
 * skipped, so every returned network is valid.
 */
std::vector<Network> makeAllNetworks(LayerSelect select =
                                         LayerSelect::Conv);

/**
 * Look a network up by (case-insensitive) name; fatal() if unknown
 * or if the selection leaves the network with no layers.
 */
Network makeNetworkByName(const std::string &name,
                          LayerSelect select = LayerSelect::Conv);

/**
 * Parse a --networks= value: "all" (makeAllNetworks) or a
 * comma-separated list of makeNetworkByName() names. fatal() on an
 * unknown name or when the list names no network (e.g. ",").
 */
std::vector<Network> parseNetworkList(const std::string &list,
                                      LayerSelect select =
                                          LayerSelect::Conv);

/**
 * Parse a --layers= value: "conv", "fc" or "all"; fatal() otherwise.
 */
LayerSelect parseLayerSelect(const std::string &text);

/**
 * A deliberately tiny two-layer network for tests and the quickstart
 * example: small enough for exhaustive (unsampled) simulation and
 * functional cross-checking. Fc/All add a tiny fc tail.
 */
Network makeTinyNetwork(LayerSelect select = LayerSelect::Conv);

} // namespace dnn
} // namespace pra

