/**
 * @file
 * Tests for the shared command-line front end of the grid programs:
 * parseGridFlags, parseServingFlags and printListing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/grid_flags.h"
#include "sim/serving/serving_sim.h"
#include "util/thread_pool.h"

namespace pra {
namespace sim {
namespace {

util::ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return util::ArgParser(static_cast<int>(argv.size()), argv.data());
}

std::vector<std::string>
names(const std::vector<dnn::Network> &networks)
{
    std::vector<std::string> out;
    for (const auto &net : networks)
        out.push_back(net.name);
    return out;
}

bool
hasLayerKind(const std::vector<dnn::Network> &networks,
             dnn::LayerKind kind)
{
    for (const auto &net : networks)
        for (const auto &layer : net.layers)
            if (layer.kind == kind)
                return true;
    return false;
}

TEST(GridFlags, Defaults)
{
    GridOptions options;
    auto networks = parseGridFlags(parse({}), options, 48, 2);
    EXPECT_EQ(names(networks), names(dnn::makeAllNetworks()));
    EXPECT_FALSE(hasLayerKind(networks, dnn::LayerKind::FullyConnected));
    EXPECT_EQ(options.activations, ActivationMode::Synthetic);
    EXPECT_EQ(options.threads, util::ThreadPool::hardwareThreads());
    EXPECT_TRUE(options.cache);
    EXPECT_FALSE(options.accel.memory.enabled);
    EXPECT_EQ(options.sample.maxUnits, 48);
    EXPECT_EQ(options.seed, 0x5eedu);
}

TEST(GridFlags, SmokeDefaults)
{
    GridOptions options;
    auto networks = parseGridFlags(parse({"--smoke"}), options, 48, 2);
    EXPECT_EQ(names(networks), std::vector<std::string>{"Tiny"});
    EXPECT_EQ(options.sample.maxUnits, 2);
    // An explicit flag still wins over the smoke default.
    networks = parseGridFlags(
        parse({"--smoke", "--units=7", "--networks=alexnet,nin"}),
        options, 48, 2);
    EXPECT_EQ(names(networks),
              (std::vector<std::string>{"AlexNet", "NiN"}));
    EXPECT_EQ(options.sample.maxUnits, 7);
}

TEST(GridFlags, ReadsEveryGridFlag)
{
    GridOptions options;
    auto networks = parseGridFlags(
        parse({"--networks=tiny", "--layers=fc", "--threads=3",
               "--cache=off", "--memory=dadn", "--full", "--seed=9"}),
        options, 48, 2);
    ASSERT_EQ(names(networks), std::vector<std::string>{"Tiny"});
    EXPECT_FALSE(hasLayerKind(networks, dnn::LayerKind::Conv));
    EXPECT_EQ(options.threads, 3);
    EXPECT_FALSE(options.cache);
    EXPECT_EQ(options.accel.memory.preset, "dadn");
    EXPECT_EQ(options.sample.maxUnits, 0);
    EXPECT_EQ(options.seed, 9u);
}

TEST(GridFlags, PropagatedImpliesTheWholePipeline)
{
    for (auto flags : {parse({"--smoke", "--activations=propagated"}),
                       parse({"--smoke", "--activations=propagated",
                              "--layers=all"})}) {
        GridOptions options;
        auto networks = parseGridFlags(flags, options, 48, 2);
        EXPECT_EQ(options.activations, ActivationMode::Propagated);
        EXPECT_TRUE(hasLayerKind(networks, dnn::LayerKind::Pool));
        EXPECT_TRUE(
            hasLayerKind(networks, dnn::LayerKind::FullyConnected));
    }
}

TEST(GridFlagsDeathTest, RejectsBadValuesLoudly)
{
    GridOptions options;
    EXPECT_EXIT(parseGridFlags(parse({"--activations=propagated",
                                      "--layers=conv"}),
                               options, 48, 2),
                testing::ExitedWithCode(1), "--layers must be 'all'");
    EXPECT_EXIT(parseGridFlags(parse({"--seed=-1"}), options, 48, 2),
                testing::ExitedWithCode(1),
                "--seed must be non-negative \\(got -1\\)");
    EXPECT_EXIT(parseGridFlags(parse({"--threads=0"}), options, 48, 2),
                testing::ExitedWithCode(1),
                "--threads must be a positive thread count");
}

TEST(GridFlagsDeathTest, RetiredFlagsAreUnknown)
{
    // The layer split is automatic and the cycle planes are always
    // on, so neither takes a flag: both names are typos now.
    std::vector<std::string> known = kGridFlags;
    known.insert(known.end(), kServingFlags.begin(),
                 kServingFlags.end());
    EXPECT_EXIT(parse({"--inner-threads=2"}).checkUnknown(known),
                testing::ExitedWithCode(1),
                "unknown flag --inner-threads");
    EXPECT_EXIT(parse({"--planes=off"}).checkUnknown(known),
                testing::ExitedWithCode(1), "unknown flag --planes");
}

TEST(ServingFlags, DefaultsAndSmokeDefaults)
{
    ServingSweepOptions options;
    options.seed = 11;
    parseServingFlags(parse({}), "2000,20000", options);
    EXPECT_EQ(options.offeredPerSecond,
              (std::vector<double>{2000, 20000}));
    EXPECT_EQ(options.serving.arrival.kind, ArrivalKind::Poisson);
    EXPECT_EQ(options.serving.arrival.seed, 11u);
    EXPECT_EQ(options.serving.instances, 1);
    EXPECT_EQ(options.serving.policy.maxBatch, 8);
    EXPECT_EQ(options.serving.policy.timeoutCycles, 1000000u);
    EXPECT_EQ(options.serving.requests, 512);

    parseServingFlags(parse({"--smoke"}), "2000,20000", options);
    EXPECT_EQ(options.offeredPerSecond,
              (std::vector<double>{1000, 100000}));
    EXPECT_EQ(options.serving.requests, 64);

    parseServingFlags(parse({"--traffic=5", "--arrival=uniform",
                             "--instances=3", "--max-batch=2",
                             "--timeout=0", "--requests=9"}),
                      "2000", options);
    EXPECT_EQ(options.offeredPerSecond, std::vector<double>{5});
    EXPECT_EQ(options.serving.arrival.kind, ArrivalKind::Uniform);
    EXPECT_EQ(options.serving.instances, 3);
    EXPECT_EQ(options.serving.policy.maxBatch, 2);
    EXPECT_EQ(options.serving.policy.timeoutCycles, 0u);
    EXPECT_EQ(options.serving.requests, 9);
}

TEST(ServingFlagsDeathTest, RejectsDegenerateValues)
{
    ServingSweepOptions options;
    EXPECT_EXIT(parseServingFlags(parse({"--timeout=-1"}), "1", options),
                testing::ExitedWithCode(1),
                "--timeout must be a non-negative cycle count");
    EXPECT_EXIT(
        parseServingFlags(parse({"--instances=0"}), "1", options),
        testing::ExitedWithCode(1), "--instances must be a positive");
}

TEST(GridFlags, PrintListingAnswersOnlyWhenAsked)
{
    const auto &registry = models::builtinEngines();
    std::ostringstream out;
    EXPECT_FALSE(printListing(parse({"--smoke"}), registry, out));
    EXPECT_TRUE(out.str().empty());

    EXPECT_TRUE(printListing(parse({"--list-engines"}), registry, out));
    // One line per kind, the name padded to a 14-column field.
    const std::string engines = out.str();
    EXPECT_EQ(engines.rfind("dadn           ", 0), 0u) << engines;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(engines.begin(), engines.end(), '\n')),
              registry.kinds().size());

    std::ostringstream memory;
    EXPECT_TRUE(printListing(parse({"--list-memory"}), registry, memory));
    EXPECT_NE(memory.str().find("off      "), std::string::npos);
}

} // namespace
} // namespace sim
} // namespace pra
