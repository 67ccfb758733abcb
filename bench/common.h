/**
 * @file
 * Shared scaffolding for the table/figure reproduction benches.
 *
 * Every bench accepts:
 *   --full            simulate every pallet/window (no sampling)
 *   --units=N         sampling cap per layer (pallets or windows);
 *                     must be positive — 0 is rejected (only --full
 *                     disables sampling)
 *   --seed=S          workload seed (non-negative)
 *   --networks=a,b    comma-separated subset (default: all six)
 *   --layers=K        layer kinds: conv (default) | fc | all
 *   --activations=M   workload class: synthetic (default) |
 *                     propagated (real forward-pass streams; implies
 *                     --layers=all; only benches that price through
 *                     the sweep path support it)
 *   --threads=N       worker threads for sweep-based benches
 *   --inner-threads=N per-cell layer-splitting cap (0 = automatic)
 *   --cache=on|off    share synthesized workloads across the grid
 *   --planes=on|off   serve L=1..3 schedule lengths from the memoized
 *                     cycle planes (results identical either way)
 *   --memory=PRESET   memory-hierarchy preset (off | ideal | dadn |
 *                     edge | hbm); only the sweep-path benches
 *                     compose memory stalls into their results —
 *                     everywhere else a non-off preset is rejected
 *   --json=PATH       write wall-clock per phase + a digest of the
 *                     rendered result as JSON (perf trajectory)
 *   --smoke           CI smoke mode: tiny network, tiny sampling cap
 *
 * Unknown flags fail loudly (a typo like --smke must not run the
 * full bench); benches with extra flags declare them via the
 * extra_flags argument of parse(). Benches that cannot honor
 * --activations=propagated (they price synthetic streams directly
 * rather than through a WorkloadSource) leave supports_activations
 * false and reject the flag instead of silently ignoring it; the
 * same contract applies to --json through supports_json (only
 * benches that instrument their phases through BenchReport accept
 * it).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/model_zoo.h"
#include "sim/memory/memory_config.h"
#include "sim/sampling.h"
#include "sim/sweep.h"
#include "sim/workload_cache.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pra {
namespace bench {

/**
 * Per-phase wall-clock timing plus a digest of the rendered result,
 * emitted as a small JSON file (--json=PATH) so CI can record the
 * bench's perf trajectory alongside a fingerprint proving the output
 * did not drift. With an empty path every call is a cheap no-op, so
 * benches instrument unconditionally.
 *
 * Usage: construct, call phase("name") at each phase boundary,
 * digest() on the final rendered text, then write() once at the end.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench, std::string path)
        : bench_(std::move(bench)), path_(std::move(path)),
          start_(Clock::now()), phaseStart_(start_)
    {
    }

    /** Close the running phase (if any) and start @p name. */
    void
    phase(const std::string &name)
    {
        closePhase();
        phaseName_ = name;
        phaseStart_ = Clock::now();
    }

    /** Record the digest (util::fnv1a) of the rendered output. */
    void
    digest(std::string_view rendered)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                      static_cast<unsigned long long>(
                          util::fnv1a(rendered)));
        digest_ = buf;
    }

    /** Close the last phase and write the JSON (no-op when no path). */
    void
    write()
    {
        closePhase();
        if (path_.empty())
            return;
        std::ofstream out(path_);
        if (!out)
            util::fatal("cannot open '" + path_ + "'");
        out << "{\n  \"bench\": \"" << bench_ << "\",\n";
        out << "  \"digest\": \"" << digest_ << "\",\n";
        out << "  \"phases\": [";
        for (size_t i = 0; i < phases_.size(); i++) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6f",
                          phases_[i].seconds);
            out << (i ? ", " : "") << "{\"name\": \""
                << phases_[i].name << "\", \"seconds\": " << buf
                << "}";
        }
        char total[64];
        std::snprintf(total, sizeof total, "%.6f",
                      seconds(start_, Clock::now()));
        out << "],\n  \"total_seconds\": " << total << "\n}\n";
        std::fprintf(stderr, "wrote bench report to %s\n",
                     path_.c_str());
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Phase
    {
        std::string name;
        double seconds = 0.0;
    };

    static double
    seconds(Clock::time_point from, Clock::time_point to)
    {
        return std::chrono::duration<double>(to - from).count();
    }

    void
    closePhase()
    {
        if (phaseName_.empty())
            return;
        phases_.push_back(
            {phaseName_, seconds(phaseStart_, Clock::now())});
        phaseName_.clear();
    }

    std::string bench_;
    std::string path_;
    std::string digest_;
    Clock::time_point start_;
    Clock::time_point phaseStart_;
    std::string phaseName_;
    std::vector<Phase> phases_;
};

/** Parsed common bench options. */
struct BenchOptions
{
    sim::SampleSpec sample{64};
    uint64_t seed = 0x5eed;
    std::vector<dnn::Network> networks;
    dnn::LayerSelect select = dnn::LayerSelect::Conv;
    sim::ActivationMode activations = sim::ActivationMode::Synthetic;
    sim::MemoryConfig memory; ///< --memory preset (default: off).
    int threads = 1;
    int innerThreads = 0;
    bool cache = true;
    bool smoke = false;
    std::string jsonPath; ///< --json target; empty = no report file.

    /** Copy the grid flags into a sweep's or serving sweep's options. */
    void
    applyTo(sim::GridOptions &grid) const
    {
        grid.threads = threads;
        grid.innerThreads = innerThreads;
        grid.cache = cache;
        grid.sample = sample;
        grid.seed = seed;
        grid.activations = activations;
        grid.accel.memory = memory;
    }

    static BenchOptions
    parse(int argc, const char *const *argv, int64_t default_units = 64,
          const std::vector<std::string> &extra_flags = {},
          bool supports_activations = false,
          bool supports_json = false, bool supports_memory = false)
    {
        util::ArgParser args(argc, argv);
        std::vector<std::string> known = {
            "full", "units", "seed", "networks", "layers",
            "activations", "memory", "threads", "smoke",
            "inner-threads", "cache", "planes"};
        if (supports_json)
            known.push_back("json");
        known.insert(known.end(), extra_flags.begin(),
                     extra_flags.end());
        args.checkUnknown(known);
        BenchOptions opt;
        opt.smoke = args.getBool("smoke");
        opt.jsonPath = supports_json ? args.getString("json", "") : "";
        // The cycle planes are an exact memoization; the switch only
        // exists for A/B timing and equivalence checks.
        sim::setCyclePlanesEnabled(args.getBool("planes", true));
        opt.activations = sim::parseActivationMode(
            args.getString("activations", "synthetic"));
        opt.memory =
            sim::parseMemoryPreset(args.getString("memory", "off"));
        if (opt.memory.enabled && !supports_memory)
            util::fatal("this bench reports compute-only results; "
                        "--memory is supported by the sweep-path "
                        "benches (fig9, fig10, fig11, fig12) and "
                        "pra_sweep");
        if (opt.activations == sim::ActivationMode::Propagated &&
            !supports_activations)
            util::fatal("this bench prices synthetic streams only; "
                        "--activations=propagated is supported by the "
                        "sweep-path benches (fig9, fig11, fig12) and "
                        "pra_sweep");
        if (opt.activations == sim::ActivationMode::Propagated) {
            // Propagation needs the full pipeline (pools included);
            // a filtered selection cannot chain.
            if (args.has("layers") && args.getString("layers") != "all")
                util::fatal("--activations=propagated propagates the "
                            "full layer pipeline; --layers must be "
                            "'all' (or omitted)");
            opt.select = dnn::LayerSelect::All;
        } else {
            opt.select = dnn::parseLayerSelect(
                args.getString("layers", "conv"));
        }
        if (opt.smoke)
            default_units = 2; // A few pallets: exercise every code
                               // path in seconds, accuracy is moot.
        opt.sample.maxUnits = args.sampleUnits(default_units);
        int64_t seed = args.getInt("seed", 0x5eed);
        if (seed < 0)
            util::fatal("--seed must be non-negative (got " +
                        std::to_string(seed) + ")");
        opt.seed = static_cast<uint64_t>(seed);
        opt.threads =
            args.getCount("threads", util::ThreadPool::hardwareThreads(), 1,
                          "a positive thread count");
        opt.innerThreads = args.getCount(
            "inner-threads", 0, 0, "non-negative (0 = automatic)");
        opt.cache = args.getBool("cache", true);
        std::string list = args.getString("networks", "");
        if (list.empty() && opt.smoke) {
            opt.networks.push_back(dnn::makeTinyNetwork(opt.select));
        } else if (list.empty()) {
            opt.networks = dnn::makeAllNetworks(opt.select);
        } else {
            opt.networks = dnn::parseNetworkList(list, opt.select);
        }
        return opt;
    }
};

/** Print the bench banner with its paper anchor. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("== %s ==\n(reproduces %s; see EXPERIMENTS.md)\n\n",
                title.c_str(), paper_ref.c_str());
}

} // namespace bench
} // namespace pra

