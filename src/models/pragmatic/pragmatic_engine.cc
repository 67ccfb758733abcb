#include "models/pragmatic/pragmatic_engine.h"

#include <algorithm>
#include <span>
#include <vector>

#include "models/pragmatic/brick_cost.h"
#include "sim/nm_model.h"
#include "sim/pallet_driver.h"
#include "sim/tiling.h"
#include "util/logging.h"

namespace pra {
namespace models {

namespace {

std::string
kindOf(SyncScheme sync)
{
    return sync == SyncScheme::PerColumn ? "pragmatic-col"
                                         : "pragmatic";
}

/** Rolling record of per-set copy-completion times for the SSR pool. */
class SsrPool
{
  public:
    explicit SsrPool(int capacity) : capacity_(capacity) {}

    /**
     * Earliest time the SB may read global set @p g: the pool must
     * have a slot free, i.e. set g - capacity must have been copied
     * by every column. Infinite pools (capacity 0) never block.
     */
    int64_t
    readAllowedAt(int64_t g) const
    {
        if (capacity_ <= 0)
            return 0;
        int64_t victim = g - capacity_;
        if (victim < 0)
            return 0;
        size_t idx = static_cast<size_t>(victim % capacity_);
        return allCopied_[idx];
    }

    /** Record that set @p g was copied by all columns at @p time. */
    void
    recordAllCopied(int64_t g, int64_t time)
    {
        if (capacity_ <= 0)
            return;
        size_t idx = static_cast<size_t>(g % capacity_);
        if (allCopied_.size() <= idx)
            allCopied_.resize(capacity_, 0);
        allCopied_[idx] = time;
    }

  private:
    int capacity_;
    std::vector<int64_t> allCopied_;
};

/** Price one layer under pallet synchronization. */
sim::LayerResult
palletSync(const dnn::LayerSpec &layer, const sim::LayerWorkload &workload,
           const sim::AccelConfig &accel, const PragmaticConfig &config,
           const sim::SampleSpec &sample, const util::InnerExecutor &exec)
{
    sim::PalletDriver driver(layer, accel, sample, workload);
    const sim::LayerTiling &tiling = driver.tiling();
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    const BrickCostModel costs(driver, config.firstStageBits);

    sim::PalletTotals totals = driver.forEachPallet(
        exec, [&](std::span<const sim::WindowCoord> columns,
                  sim::PalletTotals &acc) {
            // Fetch of step (p, s+1) overlaps processing of (p, s):
            // the previous step's processing time hides the current
            // fetch.
            sim::NmOverlapTracker nm;
            int64_t prev_process = 0;
            for (const sim::SynapseSetCoord &set : sets) {
                int max_cycles = 0;
                for (const sim::WindowCoord &w : columns) {
                    BrickCostModel::Cost cost = costs.brick(w, set);
                    max_cycles = std::max(max_cycles, cost.cycles);
                    acc.terms += cost.terms;
                }
                // Even an all-zero pallet step holds the pipeline for
                // the SB read cycle.
                int64_t set_cycles = std::max(1, max_cycles);
                if (config.modelNmStalls)
                    nm.step(prev_process,
                            sim::nmFetchCycles(tiling, columns, set));
                acc.processCycles += set_cycles;
                prev_process = set_cycles;
            }
            acc.stallCycles += nm.totalStalls();
        });
    return driver.result(totals, layer.numFilters);
}

/** Price one layer under per-column synchronization. */
sim::LayerResult
columnSync(const dnn::LayerSpec &layer, const sim::LayerWorkload &workload,
           const sim::AccelConfig &accel, const PragmaticConfig &config,
           const sim::SampleSpec &sample)
{
    sim::PalletDriver driver(layer, accel, sample, workload);
    const sim::LayerTiling &tiling = driver.tiling();
    const sim::SamplePlan &plan = driver.plan();
    const int columns = accel.windowsPerPallet;
    const std::vector<sim::SynapseSetCoord> &sets = driver.setCoords();
    const int64_t num_sets = static_cast<int64_t>(sets.size());
    const BrickCostModel costs(driver, config.firstStageBits);

    // Per-column clocks: when the column finished its previous set.
    std::vector<int64_t> col_time(columns, 0);
    // Per-column schedule cost of the set being placed.
    std::vector<int> set_cost(columns, 0);
    // Window coordinates of the current pallet's active columns.
    std::vector<sim::WindowCoord> col_coords;

    const bool ideal = config.ssrCount <= 0;
    SsrPool ssrs(ideal ? 0 : config.ssrCount);
    int64_t last_read_done = 0;

    // Dispatcher pallet double-buffering state.
    int64_t fetch_done_prev = 0;     // NM fetch completion, pallet k-1.
    int64_t pallet_finish_m2 = 0;    // All columns drained pallet k-2.
    int64_t pallet_finish_m1 = 0;    // All columns drained pallet k-1.

    int64_t terms = 0;
    int64_t stall_reference = 0; // Sum of raw schedule costs (no sync).

    for (size_t pi = 0; pi < plan.indices.size(); pi++) {
        int64_t pallet = plan.indices[pi];

        tiling.palletColumns(pallet, col_coords);
        const int active = static_cast<int>(col_coords.size());

        int64_t neurons_ready = 0;
        if (config.modelNmStalls) {
            // Fetch latency for this pallet: its worst per-set row
            // spread (fetches of consecutive sets are pipelined).
            int64_t fetch = 1;
            for (int64_t s = 0; s < num_sets;
                 s += std::max<int64_t>(1, num_sets / 4)) {
                fetch = std::max<int64_t>(
                    fetch,
                    sim::nmFetchCycles(tiling, col_coords,
                                       sets[static_cast<size_t>(s)]));
            }
            int64_t fetch_start =
                std::max(fetch_done_prev, pallet_finish_m2);
            neurons_ready = fetch_start + fetch;
            fetch_done_prev = neurons_ready;
            pallet_finish_m2 = pallet_finish_m1;
        }

        int64_t pallet_finish = 0;
        for (int64_t s = 0; s < num_sets; s++) {
            int64_t g = static_cast<int64_t>(pi) * num_sets + s;

            // Resolve this set's schedule cost for every column.
            for (int c = 0; c < columns; c++) {
                if (c >= active) {
                    set_cost[c] = 1; // Idle column tracks the stream.
                    continue;
                }
                BrickCostModel::Cost cost =
                    costs.brick(col_coords[static_cast<size_t>(c)],
                                sets[static_cast<size_t>(s)]);
                set_cost[c] = std::max(1, cost.cycles);
                terms += cost.terms;
                stall_reference += set_cost[c];
            }

            // SB read: single port, and an SSR slot must be free.
            int64_t read_done = std::max(last_read_done + 1,
                                         ssrs.readAllowedAt(g) + 1);
            last_read_done = read_done;

            // Columns copy the set when they reach it, then process.
            int64_t all_copied = 0;
            for (int c = 0; c < columns; c++) {
                int64_t start = std::max({col_time[c], read_done,
                                          neurons_ready});
                all_copied = std::max(all_copied, start);
                col_time[c] = start + set_cost[c];
            }
            ssrs.recordAllCopied(g, all_copied);
            if (s + 1 == num_sets)
                pallet_finish = *std::max_element(col_time.begin(),
                                                  col_time.end());
        }
        pallet_finish_m1 = pallet_finish;
    }

    int64_t stream_finish = *std::max_element(col_time.begin(),
                                              col_time.end());

    // Section V-E: SB is read as often as under pallet sync (the SSRs
    // absorb the repeats), so the shared sbReadSteps hold.
    sim::LayerResult result = driver.result(
        sim::PalletTotals{stream_finish, 0, terms}, layer.numFilters);
    // Stall accounting: time beyond the busiest column's raw work.
    const double passes = static_cast<double>(tiling.passes());
    double busiest = static_cast<double>(stall_reference) /
                     std::max(1, columns);
    result.nmStallCycles = std::max(
        0.0, passes * plan.scale *
                 (static_cast<double>(stream_finish) - busiest));
    return result;
}

} // namespace

std::string
PragmaticConfig::label() const
{
    // Built with repeated appends: the a + b + c temporary chain
    // trips GCC 12's -Wrestrict false positive (GCC bug 105651).
    std::string name = "PRA-";
    name += std::to_string(firstStageBits);
    name += 'b';
    if (sync == SyncScheme::PerColumn) {
        if (ssrCount <= 0) {
            name += "-idealR";
        } else {
            name += '-';
            name += std::to_string(ssrCount);
            name += 'R';
        }
    }
    if (representation == Representation::Quant8)
        name += "-q8";
    if (!softwareTrim && representation == Representation::Fixed16)
        name += "-notrim";
    return name;
}

PragmaticEngine::PragmaticEngine(SyncScheme sync,
                                 const sim::EngineKnobs &knobs)
{
    std::vector<std::string> allowed = {"bits", "trim", "repr",
                                        "nmstalls"};
    if (sync == SyncScheme::PerColumn)
        allowed.push_back("ssr");
    sim::requireKnownKnobs(kindOf(sync), knobs, allowed);

    config_.sync = sync;
    config_.firstStageBits =
        static_cast<int>(sim::knobInt(knobs, "bits", 2));
    if (config_.firstStageBits < 0 || config_.firstStageBits > 4)
        util::fatal("pragmatic: bits must be in 0..4");
    config_.softwareTrim = sim::knobBool(knobs, "trim", true);
    config_.modelNmStalls = sim::knobBool(knobs, "nmstalls", true);
    std::string repr = sim::knobString(knobs, "repr", "fixed16");
    if (repr == "fixed16")
        config_.representation = Representation::Fixed16;
    else if (repr == "quant8")
        config_.representation = Representation::Quant8;
    else
        util::fatal("pragmatic: repr must be fixed16 or quant8");
    if (sync == SyncScheme::PerColumn) {
        config_.ssrCount =
            static_cast<int>(sim::knobInt(knobs, "ssr", 1));
        if (config_.ssrCount < 0)
            util::fatal("pragmatic-col: ssr must be >= 0");
    }
}

sim::InputStream
PragmaticEngine::inputStream() const
{
    if (config_.representation == Representation::Quant8)
        return sim::InputStream::Quant8;
    return config_.softwareTrim ? sim::InputStream::Fixed16Trimmed
                                : sim::InputStream::Fixed16Raw;
}

ScheduleWidths
PragmaticEngine::cycleWidths() const
{
    const int bits = config_.firstStageBits;
    return bits >= 1 && bits < kMaxFirstStageBits ? scheduleWidth(bits)
                                                  : 0;
}

sim::LayerResult
PragmaticEngine::simulateLayer(const dnn::LayerSpec &layer,
                               const sim::LayerWorkload &workload,
                               const sim::AccelConfig &accel,
                               const sim::SampleSpec &sample,
                               const util::InnerExecutor &exec) const
{
    return config_.sync == SyncScheme::Pallet
               ? palletSync(layer, workload, accel, config_, sample, exec)
               : columnSync(layer, workload, accel, config_, sample);
}

} // namespace models
} // namespace pra
