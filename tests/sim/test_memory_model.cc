/**
 * @file
 * Memory-hierarchy model tests: hand-computed traffic for conv and
 * FC layers, the double-buffer stall rule, --memory=ideal
 * equivalence with compute-only runs, sweep determinism with memory
 * modeling on, and loud rejection of unknown presets and degenerate
 * configurations.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/memory/memory_config.h"
#include "sim/memory/memory_model.h"
#include "sim/sweep.h"

using namespace pra;
using namespace pra::sim;

namespace {

/** 4x4x16 input, 3x3x16 filters, 32 of them: one pallet, one pass. */
dnn::LayerSpec
smallConv()
{
    dnn::LayerSpec layer;
    layer.name = "conv_small";
    layer.inputX = 4;
    layer.inputY = 4;
    layer.inputChannels = 16;
    layer.filterX = 3;
    layer.filterY = 3;
    layer.numFilters = 32;
    EXPECT_TRUE(layer.valid());
    return layer;
}

SweepOptions
memorySweepOptions(const std::string &preset)
{
    SweepOptions options;
    options.threads = 1;
    options.accel.memory = parseMemoryPreset(preset);
    return options;
}

std::string
sweepCsv(const std::vector<NetworkResult> &results, bool per_layer)
{
    std::ostringstream out;
    writeSweepCsv(out, results, per_layer);
    return out.str();
}

std::vector<EngineSelection>
allEngines()
{
    std::vector<EngineSelection> engines;
    for (const auto &kind : models::builtinEngines().kinds())
        engines.push_back({kind, {}});
    return engines;
}

TEST(MemoryConfigTest, PresetsParseAndValidate)
{
    for (const auto &name : memoryPresetNames()) {
        MemoryConfig config = parseMemoryPreset(name);
        EXPECT_TRUE(config.valid()) << name;
        EXPECT_EQ(config.preset, name);
        EXPECT_FALSE(memoryPresetHelp(name).empty());
    }
    EXPECT_FALSE(parseMemoryPreset("off").enabled);
    EXPECT_TRUE(parseMemoryPreset("ideal").ideal);
    MemoryConfig dadn = parseMemoryPreset("dadn");
    EXPECT_TRUE(dadn.enabled);
    EXPECT_FALSE(dadn.ideal);
    EXPECT_DOUBLE_EQ(dadn.gbBytesPerCycle(), 16 * 32.0);
}

TEST(MemoryConfigTest, UnknownPresetRejectedLoudly)
{
    EXPECT_DEATH(parseMemoryPreset("nope"), "unknown memory preset");
    EXPECT_DEATH(parseMemoryPreset(""), "unknown memory preset");
}

TEST(MemoryConfigTest, DegenerateCapacitiesInvalid)
{
    MemoryConfig config = parseMemoryPreset("dadn");
    config.gbCapacityBytes = 0.0;
    EXPECT_FALSE(config.valid());

    config = parseMemoryPreset("dadn");
    config.dramBytesPerCycle = 0.0;
    EXPECT_FALSE(config.valid());

    config = parseMemoryPreset("dadn");
    config.gbBanks = 0;
    EXPECT_FALSE(config.valid());

    config = parseMemoryPreset("dadn");
    config.weightSpadBytes = -1.0;
    EXPECT_FALSE(config.valid());

    // An AccelConfig carrying a degenerate memory config is itself
    // invalid, so engines reject it before simulating anything.
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    accel.memory.inputSpadBytes = 0.0;
    EXPECT_FALSE(accel.valid());
}

TEST(MemoryModelTest, DegenerateConfigRejectedByTraffic)
{
    AccelConfig accel;
    MemoryConfig broken = parseMemoryPreset("dadn");
    broken.gbCapacityBytes = 0.0;
    EXPECT_DEATH(layerTraffic(smallConv(), accel, broken),
                 "disabled or invalid");
    EXPECT_DEATH(layerTraffic(smallConv(), accel, MemoryConfig{}),
                 "disabled or invalid");
}

TEST(MemoryModelTest, SmallConvTrafficHandComputed)
{
    AccelConfig accel; // 16 tiles x 16 filters: one pass, one pallet.
    dnn::LayerSpec layer = smallConv();
    LayerTraffic t =
        layerTraffic(layer, accel, parseMemoryPreset("dadn"));

    // 4*4*16 input words, 32*3*3*16 synapse words, 2*2*32 output
    // words, two bytes each.
    EXPECT_DOUBLE_EQ(t.ifmapBytes, 512.0);
    EXPECT_DOUBLE_EQ(t.filterBytes, 9216.0);
    EXPECT_DOUBLE_EQ(t.ofmapBytes, 256.0);
    EXPECT_DOUBLE_EQ(t.tileSteps, 1.0);

    // One pass, resident weights (16 * 144 * 2 = 4608 B slice):
    // every tensor crosses each boundary once.
    EXPECT_TRUE(t.weightsResident);
    EXPECT_TRUE(t.fitsGlobalBuffer);
    EXPECT_DOUBLE_EQ(t.onChipBytes, 512.0 + 9216.0 + 256.0);
    EXPECT_DOUBLE_EQ(t.offChipBytes, 512.0 + 9216.0 + 256.0);
}

TEST(MemoryModelTest, FcTrafficHandComputed)
{
    AccelConfig accel;
    dnn::LayerSpec layer = dnn::LayerSpec::fullyConnected("fc", 256, 64);
    LayerTraffic t =
        layerTraffic(layer, accel, parseMemoryPreset("dadn"));

    // 256 input words, 64*256 synapse words, 64 output words; the
    // lowered FC has one window -> one pallet, and 64 filters -> one
    // pass.
    EXPECT_DOUBLE_EQ(t.ifmapBytes, 512.0);
    EXPECT_DOUBLE_EQ(t.filterBytes, 32768.0);
    EXPECT_DOUBLE_EQ(t.ofmapBytes, 128.0);
    EXPECT_DOUBLE_EQ(t.tileSteps, 1.0);
    EXPECT_DOUBLE_EQ(t.onChipBytes, 512.0 + 32768.0 + 128.0);
    EXPECT_DOUBLE_EQ(t.offChipBytes, 512.0 + 32768.0 + 128.0);
}

TEST(MemoryModelTest, MultiPassRereadsIfmap)
{
    AccelConfig accel;
    dnn::LayerSpec layer = smallConv();
    layer.numFilters = 512; // 2 passes of 256 filters.
    LayerTraffic t =
        layerTraffic(layer, accel, parseMemoryPreset("dadn"));

    EXPECT_DOUBLE_EQ(t.tileSteps, 2.0);
    // The ifmap streams once per pass on-chip; filters and ofmap are
    // split across the passes, so their totals are unchanged.
    EXPECT_DOUBLE_EQ(t.onChipBytes,
                     2.0 * 512.0 + t.filterBytes + t.ofmapBytes);
    // Working set still fits the 4 MiB buffer: off-chip stays
    // compulsory-only.
    EXPECT_TRUE(t.fitsGlobalBuffer);
    EXPECT_DOUBLE_EQ(t.offChipBytes,
                     512.0 + t.filterBytes + t.ofmapBytes);
}

TEST(MemoryModelTest, OversizedFilterSliceStreamsPerPallet)
{
    AccelConfig accel;
    // VGG-class layer: 3*3*512-word filters. Per-tile slice =
    // 16 * 4608 * 2 = 147456 B > the edge preset's 64 KiB weight
    // scratchpad, so filters re-stream from the GB per pallet.
    dnn::LayerSpec layer;
    layer.name = "conv_wide";
    layer.inputX = 8;
    layer.inputY = 8;
    layer.inputChannels = 512;
    layer.filterX = 3;
    layer.filterY = 3;
    layer.numFilters = 64;
    layer.pad = 1;
    ASSERT_TRUE(layer.valid());

    MemoryConfig edge = parseMemoryPreset("edge");
    LayerTraffic t = layerTraffic(layer, accel, edge);
    EXPECT_FALSE(t.weightsResident);
    double pallets = 4.0; // 64 windows / 16 per pallet.
    EXPECT_DOUBLE_EQ(t.onChipBytes,
                     t.ifmapBytes + t.filterBytes * pallets +
                         t.ofmapBytes);

    // The same slice is resident under dadn's 128 KiB scratchpad...
    LayerTraffic dadn =
        layerTraffic(layer, accel, parseMemoryPreset("dadn"));
    EXPECT_FALSE(dadn.weightsResident); // 147456 B > 128 KiB too.
    // ...but always resident under ideal (infinite capacity).
    LayerTraffic ideal =
        layerTraffic(layer, accel, parseMemoryPreset("ideal"));
    EXPECT_TRUE(ideal.weightsResident);
    EXPECT_TRUE(ideal.fitsGlobalBuffer);
}

TEST(MemoryModelTest, GlobalBufferSpillRefetchesIfmapPerPass)
{
    AccelConfig accel;
    // An fc6-shaped tail: 9216 inputs, 4096 outputs -> 16 passes,
    // 75.5 MB of weights, far beyond any preset's global buffer.
    dnn::LayerSpec layer =
        dnn::LayerSpec::fullyConnected("fc6", 9216, 4096);
    LayerTraffic t =
        layerTraffic(layer, accel, parseMemoryPreset("dadn"));

    EXPECT_FALSE(t.fitsGlobalBuffer);
    EXPECT_DOUBLE_EQ(t.tileSteps, 16.0);
    // Off-chip: the ifmap re-crosses the channel on every pass;
    // each filter byte is consumed by exactly one pass.
    EXPECT_DOUBLE_EQ(t.offChipBytes,
                     16.0 * t.ifmapBytes + t.filterBytes +
                         t.ofmapBytes);
}

TEST(MemoryModelTest, StallRuleColdFillPlusSteadyState)
{
    MemoryConfig memory = parseMemoryPreset("dadn");
    LayerTraffic t;
    t.onChipBytes = 512.0 * 100.0;  // 100 GB cycles at 512 B/cyc.
    t.offChipBytes = 32.0 * 400.0;  // 400 DRAM cycles at 32 B/cyc.
    t.tileSteps = 8.0;

    // Fetch time F = max(100, 400) = 400.
    // Compute-bound (C >= F): only the cold fill F/steps remains.
    EXPECT_DOUBLE_EQ(memoryStallCycles(t, 1000.0, memory), 50.0);
    // Bandwidth-bound: F/steps + (steps-1)/steps * (F - C).
    EXPECT_DOUBLE_EQ(memoryStallCycles(t, 80.0, memory),
                     50.0 + 7.0 / 8.0 * 320.0);
    // Ideal: zero, not merely small.
    EXPECT_DOUBLE_EQ(
        memoryStallCycles(t, 80.0, parseMemoryPreset("ideal")), 0.0);
}

TEST(MemoryModelTest, ApplyFillsResultColumns)
{
    AccelConfig accel;
    accel.memory = parseMemoryPreset("dadn");
    dnn::LayerSpec layer = smallConv();

    LayerResult result;
    result.layerName = layer.name;
    result.cycles = 1000.0;
    applyMemoryModel(layer, accel, result);

    EXPECT_TRUE(result.memoryModeled);
    EXPECT_GT(result.onChipBytes, 0.0);
    EXPECT_GT(result.offChipBytes, 0.0);
    EXPECT_GT(result.memStallCycles, 0.0);
    EXPECT_DOUBLE_EQ(result.systemCycles(),
                     result.cycles + result.memStallCycles);

    // Memory off: a no-op, every column stays zero.
    LayerResult untouched;
    untouched.cycles = 1000.0;
    applyMemoryModel(layer, AccelConfig{}, untouched);
    EXPECT_FALSE(untouched.memoryModeled);
    EXPECT_DOUBLE_EQ(untouched.systemCycles(), 1000.0);
}

TEST(MemorySweepTest, IdealMatchesComputeOnlyExactly)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    auto engines = allEngines();
    const auto &registry = models::builtinEngines();

    auto off = runSweep(networks, engines, registry,
                        memorySweepOptions("off"));
    auto ideal = runSweep(networks, engines, registry,
                          memorySweepOptions("ideal"));
    ASSERT_EQ(off.size(), ideal.size());
    for (size_t i = 0; i < off.size(); i++) {
        ASSERT_EQ(off[i].layers.size(), ideal[i].layers.size());
        EXPECT_FALSE(off[i].memoryModeled());
        EXPECT_TRUE(ideal[i].memoryModeled());
        for (size_t l = 0; l < off[i].layers.size(); l++) {
            const auto &o = off[i].layers[l];
            const auto &m = ideal[i].layers[l];
            // Compute columns are bit-identical; stalls are exactly
            // zero; traffic is still counted.
            EXPECT_EQ(o.cycles, m.cycles);
            EXPECT_EQ(o.nmStallCycles, m.nmStallCycles);
            EXPECT_EQ(o.effectualTerms, m.effectualTerms);
            EXPECT_EQ(o.sbReadSteps, m.sbReadSteps);
            EXPECT_DOUBLE_EQ(m.memStallCycles, 0.0);
            EXPECT_FALSE(m.bandwidthBound);
            EXPECT_GT(m.onChipBytes, 0.0);
            EXPECT_GT(m.offChipBytes, 0.0);
            EXPECT_EQ(m.systemCycles(), o.cycles);
        }
    }
}

TEST(MemorySweepTest, DeterministicAcrossThreadsAndCache)
{
    std::vector<dnn::Network> networks = {
        dnn::makeTinyNetwork(dnn::LayerSelect::All)};
    auto engines = allEngines();
    const auto &registry = models::builtinEngines();

    SweepOptions base = memorySweepOptions("dadn");
    auto reference = runSweep(networks, engines, registry, base);
    std::string golden = sweepCsv(reference, /*per_layer=*/true);
    EXPECT_NE(golden.find("on_chip_bytes"), std::string::npos);

    SweepOptions threaded = base;
    threaded.threads = 4;
    // More threads than the one-image cells: passes split layers.
    SweepOptions split = base;
    split.threads = static_cast<int>(engines.size()) + 1;
    SweepOptions uncached = base;
    uncached.threads = 4;
    uncached.cache = false;
    for (const SweepOptions &options : {threaded, split, uncached}) {
        auto results = runSweep(networks, engines, registry, options);
        EXPECT_EQ(sweepCsv(results, /*per_layer=*/true), golden);
    }
}

TEST(MemorySweepTest, CsvColumnsGatedOnMemoryModeling)
{
    std::vector<dnn::Network> networks = {dnn::makeTinyNetwork()};
    std::vector<EngineSelection> engines = {{"dadn", {}}};
    const auto &registry = models::builtinEngines();

    auto off = runSweep(networks, engines, registry,
                        memorySweepOptions("off"));
    std::string off_csv = sweepCsv(off, /*per_layer=*/false);
    EXPECT_EQ(off_csv.find("on_chip_bytes"), std::string::npos);
    EXPECT_EQ(off_csv.find("system_cycles"), std::string::npos);

    auto with = runSweep(networks, engines, registry,
                         memorySweepOptions("edge"));
    std::string mem_csv = sweepCsv(with, /*per_layer=*/false);
    for (const char *column :
         {"on_chip_bytes", "off_chip_bytes", "mem_stall_cycles",
          "system_cycles", "bw_bound"})
        EXPECT_NE(mem_csv.find(column), std::string::npos) << column;
}

TEST(MemorySweepTest, SpeedupUsesSystemCycles)
{
    NetworkResult base;
    base.layers.push_back({});
    base.layers.back().cycles = 1000.0;
    NetworkResult faster;
    faster.layers.push_back({});
    faster.layers.back().cycles = 250.0;

    // Compute-only: 4x.
    EXPECT_DOUBLE_EQ(faster.speedupOver(base), 4.0);

    // Memory stalls erode the system speedup (the compute advantage
    // cannot hide a fixed fetch time).
    base.layers.back().memStallCycles = 200.0;
    faster.layers.back().memStallCycles = 350.0;
    EXPECT_DOUBLE_EQ(faster.speedupOver(base), 1200.0 / 600.0);
}

} // namespace
