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
 *   --smoke           CI smoke mode: tiny network, tiny sampling cap
 *
 * Benches that price a grid (runs_grid: fig9, fig10, fig11, fig12
 * and the serving bench) take the rest of the grid flags of
 * sim/grid_flags.h as well:
 *   --activations=M   workload class: synthetic (default) |
 *                     propagated (real forward-pass streams; implies
 *                     --layers=all)
 *   --threads=N       worker threads; layers split automatically
 *                     when there are fewer passes than threads
 *   --cache=on|off    share synthesized workloads across the grid
 *   --memory=PRESET   memory-hierarchy preset (off | ideal | dadn |
 *                     edge | hbm)
 * and benches that instrument their phases through BenchReport
 * (supports_json) accept
 *   --json=PATH       write wall-clock per phase + a digest of the
 *                     rendered result as JSON (perf trajectory)
 *
 * Unknown flags fail loudly (a typo like --smke must not run the
 * full bench), and so does a flag the bench cannot honor: a
 * compute-only bench rejects --threads as unknown rather than
 * silently ignoring it. Benches with extra flags declare them via
 * the extra_flags argument of parse() and read them from
 * BenchOptions::args.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dnn/model_zoo.h"
#include "models/engines.h"
#include "sim/grid_flags.h"
#include "sim/layer_result.h"
#include "sim/sweep.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table.h"

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
    util::ArgParser args; ///< The command line, for bench-only flags.
    sim::GridOptions grid;
    std::vector<dnn::Network> networks;
    bool smoke = false;
    std::string jsonPath; ///< --json target; empty = no report file.

    explicit BenchOptions(util::ArgParser parsed) : args(std::move(parsed))
    {
    }

    static BenchOptions
    parse(int argc, const char *const *argv, int64_t default_units = 64,
          const std::vector<std::string> &extra_flags = {},
          bool runs_grid = false, bool supports_json = false)
    {
        BenchOptions opt{util::ArgParser(argc, argv)};
        std::vector<std::string> known =
            runs_grid ? sim::kGridFlags
                      : std::vector<std::string>{"networks", "layers",
                                                 "units", "full",
                                                 "seed", "smoke"};
        if (supports_json)
            known.push_back("json");
        known.insert(known.end(), extra_flags.begin(),
                     extra_flags.end());
        opt.args.checkUnknown(known, &std::cout);
        opt.smoke = opt.args.getBool("smoke");
        opt.jsonPath =
            supports_json ? opt.args.getString("json", "") : "";
        // A few pallets under --smoke: exercise every code path in
        // seconds, accuracy is moot.
        opt.networks =
            sim::parseGridFlags(opt.args, opt.grid, default_units, 2);
        return opt;
    }
};

/** Price @p engines over the bench's networks with its grid flags. */
inline std::vector<sim::NetworkResult>
runGrid(const BenchOptions &opt,
        const std::vector<sim::EngineSelection> &engines)
{
    sim::SweepOptions sweep;
    static_cast<sim::GridOptions &>(sweep) = opt.grid;
    return sim::runSweep(opt.networks, engines, models::builtinEngines(),
                         sweep);
}

/**
 * Render the table figures 9-12 share from runGrid(opt, engines)
 * @p results: one row per network of each engine's speedup over the
 * first engine (the DaDN baseline), passed through @p cell as
 * cell(series, speedup) with series counting the other engines from
 * 0, then a "geo" row of the column geometric means. @p header names
 * the network column and every series.
 */
inline std::string
speedupTable(const BenchOptions &opt,
             const std::vector<sim::EngineSelection> &engines,
             const std::vector<sim::NetworkResult> &results,
             const std::vector<std::string> &header,
             const std::function<double(size_t, double)> &cell = {})
{
    util::TextTable table(header);
    const size_t series = engines.size() - 1; // All but the baseline.
    std::vector<std::vector<double>> columns(series);
    for (size_t n = 0; n < opt.networks.size(); n++) {
        const auto &base = results[n * engines.size()];
        std::vector<std::string> row = {opt.networks[n].name};
        for (size_t e = 0; e < series; e++) {
            double v =
                results[n * engines.size() + e + 1].speedupOver(base);
            if (cell)
                v = cell(e, v);
            columns[e].push_back(v);
            row.push_back(util::formatDouble(v));
        }
        table.addRow(row);
    }
    std::vector<std::string> geo = {"geo"};
    for (const auto &column : columns)
        geo.push_back(util::formatDouble(sim::geometricMean(column)));
    table.addRow(geo);
    return table.render();
}

/** Print the bench banner with its paper anchor. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("== %s ==\n(reproduces %s; see README.md, "
                "\"Reproducing paper figures\")\n\n",
                title.c_str(), paper_ref.c_str());
}

} // namespace bench
} // namespace pra

