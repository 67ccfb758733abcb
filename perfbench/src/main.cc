/**
 * @file
 * pra_perfbench: the repository's canonical benchmark program.
 *
 *   pra_perfbench --workload=NAME [--seed=N] [--seconds=S]
 *                 [--trace=0|1]
 *   pra_perfbench --selftest=GOLDEN_DIR
 *
 * --trace=0 (default) times the untraced top-level call of the
 * workload at kThreads threads, repeated until --seconds have
 * passed, and prints the end-to-end metrics as medians over the
 * repetitions (peak memory comes from one serial call made first).
 * --trace=1 runs the workload once untraced in parallel, then
 * alternates an untraced serial run with the traced serial replay
 * (workloads.h) until --seconds have passed, and prints the
 * per-layer metrics of the first replay. Every mode checks its
 * outputs; the last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ...,
 *    "metrics": {"name": {"value": ..., "unit": "..."}, ...}}
 *
 * --selftest replays the tiny smoke sweep and serving runs and
 * compares them with the committed goldens in GOLDEN_DIR; exit 1 on a
 * mismatch. See perfbench/README.md for the workloads and metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/args.h"
#include "util/logging.h"
#include "workloads.h"

using namespace pra;
using perfbench::Tracer;

namespace {

/**
 * Set-up is sampled in chunks of repetitions lasting this long, one
 * chunk before every timed call, so setup_s (the median of all
 * samples) spans the whole run rather than one moment of it. One
 * set-up takes from a quarter of a millisecond to about ten.
 */
constexpr double kSetupChunkSeconds = 0.05;

/** Worker threads of every timed call: the 4-core reference box. */
constexpr int kThreads = 4;

/** The engine kinds of the models.<kind> metrics BENCHMARK.json lists. */
const char *const kEngineKinds[] = {"dadn",      "stripes",
                                    "dynamic_stripes", "pragmatic",
                                    "pragmatic-col",   "laconic",
                                    "terms"};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** User + system CPU seconds of the whole process so far. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/**
 * Samples the process's resident set (/proc/self/statm) every
 * millisecond while alive, so one call gets its own peak; the
 * process-wide ru_maxrss would also count earlier calls.
 */
class RssSampler
{
  public:
    RssSampler() : thread_([this] { sample(); }) {}
    ~RssSampler()
    {
        stop_ = true;
        thread_.join();
    }

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Largest resident set seen so far, in MiB. */
    double peakMb() const
    {
        return static_cast<double>(peakBytes_.load()) / (1024.0 * 1024.0);
    }

  private:
    void sample()
    {
        const long page = sysconf(_SC_PAGESIZE);
        do {
            std::ifstream statm("/proc/self/statm");
            long size = 0;
            long resident = 0;
            if (statm >> size >> resident)
                peakBytes_ = std::max(peakBytes_.load(), resident * page);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } while (!stop_);
    }

    std::atomic<bool> stop_{false};
    std::atomic<long> peakBytes_{0};
    std::thread thread_;
};

double
since(Tracer::Clock::time_point start)
{
    return Tracer::seconds(Tracer::Clock::now() - start);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** End-to-end metrics: medians over untraced repetitions. */
std::vector<Metric>
runUntraced(const perfbench::Workload &workload, double seconds,
            perfbench::Checks &checks)
{
    std::vector<double> setup_s;
    auto sampleSetup = [&] {
        auto chunk = Tracer::Clock::now();
        do {
            auto start = Tracer::Clock::now();
            perfbench::buildSetup(workload);
            setup_s.push_back(since(start));
        } while (since(chunk) < kSetupChunkSeconds);
    };
    const std::vector<dnn::Network> networks =
        perfbench::buildSetup(workload).networks;

    // Peak memory comes from one serial call made first: its
    // allocation sequence is fixed, while a parallel call's peak
    // depends on which cells overlap, and later calls would inherit
    // memory the allocator kept from earlier ones.
    perfbench::Workload serial = workload;
    serial.setThreads(1);
    double peak_mb = 0.0;
    std::string serial_csv;
    sampleSetup();
    {
        RssSampler sampler;
        serial_csv = perfbench::runTopLevel(serial, networks).csv;
        peak_mb = sampler.peakMb();
    }

    std::vector<double> wall;
    std::vector<double> cpu;
    std::string first_csv;
    auto begin = Tracer::Clock::now();
    do {
        sampleSetup();
        const double cpu0 = cpuSeconds();
        auto start = Tracer::Clock::now();
        perfbench::RunOutput out =
            perfbench::runTopLevel(workload, networks);
        wall.push_back(since(start));
        cpu.push_back(cpuSeconds() - cpu0);
        perfbench::checkRows(out, checks);
        if (first_csv.empty())
            first_csv = out.csv;
        else
            checks.expect(out.csv == first_csv,
                          "output identical across repetitions");
    } while (since(begin) < seconds);
    checks.expect(serial_csv == first_csv,
                  "serial output identical to parallel output");

    const double run_s = median(wall);
    const double evals = static_cast<double>(
        perfbench::pricedEvaluations(workload, networks));
    std::printf("# repetitions=%zu setup_repetitions=%zu run_s:",
                wall.size(), setup_s.size());
    for (double w : wall)
        std::printf(" %.4f", w);
    std::printf("\n");
    return {{"setup_s", median(setup_s), "s"},
            {"run_s", run_s, "s"},
            {"evals_per_s", evals / run_s, "1/s"},
            {"cpu_s", median(cpu), "s"},
            {"peak_rss_mb", peak_mb, "MB"}};
}

/** Per-layer metrics of the serial traced replay. */
std::vector<Metric>
runTraced(const perfbench::Workload &workload, double seconds,
          perfbench::Checks &checks)
{
    std::vector<dnn::Network> networks =
        perfbench::buildSetup(workload).networks;

    // The untraced parallel run: the reference output and busy share.
    const double cpu0 = cpuSeconds();
    auto start = Tracer::Clock::now();
    perfbench::RunOutput parallel =
        perfbench::runTopLevel(workload, networks);
    const double parallel_wall = since(start);
    const double busy_share =
        (cpuSeconds() - cpu0) / (parallel_wall * kThreads);

    perfbench::Workload serial = workload;
    serial.setThreads(1);
    Tracer tracer;
    perfbench::RunOutput traced;
    std::vector<double> serial_wall;
    std::vector<double> traced_wall;
    auto begin = Tracer::Clock::now();
    do {
        start = Tracer::Clock::now();
        perfbench::RunOutput untraced =
            perfbench::runTopLevel(serial, networks);
        serial_wall.push_back(since(start));

        Tracer rep_tracer;
        start = Tracer::Clock::now();
        perfbench::RunOutput rep = perfbench::replay(workload, rep_tracer);
        traced_wall.push_back(since(start));

        checks.expect(untraced.csv == parallel.csv,
                      "serial output identical to parallel output");
        checks.expect(rep.csv == untraced.csv,
                      "traced replay identical to untraced output");
        perfbench::checkRows(rep, checks);
        if (traced_wall.size() == 1) {
            tracer = std::move(rep_tracer);
            traced = std::move(rep);
        }
    } while (since(begin) < seconds);
    std::printf("# traced_repetitions=%zu\n", traced_wall.size());

    const std::map<std::string, double> self = tracer.selfSeconds();
    auto span = [&](const std::string &name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto count = [&](const std::string &name) {
        return tracer.counter(name);
    };

    std::vector<Metric> m;
    m.push_back({"dnn.synth.s", span("dnn.synth"), "s"});
    m.push_back({"dnn.synth.elements", count("dnn.synth.elements"),
                 "count"});
    m.push_back({"dnn.synth.ns_per_element",
                 ratio(span("dnn.synth") * 1e9,
                       count("dnn.synth.elements")),
                 "ns"});
    m.push_back({"dnn.weights.s", span("dnn.weights"), "s"});
    m.push_back({"dnn.weights.codes", count("dnn.weights.codes"),
                 "count"});
    m.push_back({"dnn.weights.builds", count("dnn.weights.builds"),
                 "count"});
    m.push_back({"dnn.weights.distinct_layers",
                 count("dnn.weights.distinct_layers"), "count"});
    m.push_back({"dnn.propagate.s", span("dnn.propagate"), "s"});
    m.push_back({"dnn.propagate.macs", count("dnn.propagate.macs"),
                 "count"});
    m.push_back({"dnn.propagate.gmacs_per_s",
                 ratio(count("dnn.propagate.macs") * 1e-9,
                       span("dnn.propagate")),
                 "GMAC/s"});
    m.push_back({"sim.planes.brick.s", span("sim.planes.brick"), "s"});
    m.push_back({"sim.planes.lanepop.s", span("sim.planes.lanepop"),
                 "s"});
    m.push_back({"sim.planes.cycle.s", span("sim.planes.cycle"), "s"});
    m.push_back({"sim.planes.bricks", count("sim.planes.bricks"),
                 "count"});
    for (const char *kind : kEngineKinds) {
        const std::string name = std::string("models.") + kind;
        m.push_back({name + ".s", span(name), "s"});
        m.push_back({name + ".evals", count(name + ".evals"), "count"});
    }
    m.push_back({"sim.sampling.priced_share",
                 perfbench::pricedShare(workload, networks), "ratio"});
    m.push_back({"sim.memory.s", span("sim.memory"), "s"});
    m.push_back({"sim.memory.offchip_mb",
                 count("sim.memory.offchip_bytes") / (1024.0 * 1024.0),
                 "MB"});
    const double hits = count("sim.cache.hits");
    const double misses = count("sim.cache.misses");
    m.push_back({"sim.cache.hits", hits, "count"});
    m.push_back({"sim.cache.misses", misses, "count"});
    m.push_back({"sim.cache.hit_ratio", ratio(hits, hits + misses),
                 "ratio"});
    m.push_back({"sim.sweep.busy_share", busy_share, "ratio"});
    m.push_back({"sim.serving.curve.s", span("sim.serving.curve"), "s"});
    m.push_back({"sim.serving.fleet.s", span("sim.serving.fleet"), "s"});
    m.push_back({"sim.serving.fleet.requests_per_s",
                 ratio(count("sim.serving.fleet.requests"),
                       span("sim.serving.fleet")),
                 "1/s"});
    m.push_back({"sim.serving.fleet.dispatches",
                 count("sim.serving.fleet.dispatches"), "count"});
    m.push_back({"trace.unattributed_s",
                 traced_wall.front() - tracer.totalSelfSeconds(), "s"});
    m.push_back({"trace.overhead_share",
                 median(traced_wall) / median(serial_wall) - 1.0,
                 "ratio"});
    const perfbench::SimFigures sim =
        perfbench::simFigures(workload, traced);
    m.push_back({"sim_speedup_vs_dadn", sim.speedupVsDadn, "ratio"});
    m.push_back({"sim_p99_ms", sim.p99Ms, "ms"});
    m.push_back({"sim_capacity_ips", sim.capacityIps, "images/s"});
    return m;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("perfbench: cannot read " + path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Replay fidelity against the committed smoke goldens. */
int
selftest(const std::string &golden_dir)
{
    perfbench::Checks checks;
    const std::pair<perfbench::Workload, const char *> cases[] = {
        {perfbench::smokeSweepWorkload(), "pra_sweep_smoke.csv"},
        {perfbench::smokeServingWorkload(), "pra_serve_smoke.csv"}};
    for (const auto &[workload, file] : cases) {
        const std::string golden = readFile(golden_dir + "/" + file);
        Tracer tracer;
        checks.expect(perfbench::replay(workload, tracer).csv == golden,
                      std::string("traced replay reproduces ") + file);
        checks.expect(
            perfbench::runTopLevel(workload,
                                   perfbench::buildSetup(workload).networks)
                    .csv == golden,
            std::string("top-level call reproduces ") + file);
    }
    std::printf("perfbench selftest: %lld checks, %lld failed\n",
                static_cast<long long>(checks.attempted),
                static_cast<long long>(checks.failed));
    return checks.failed == 0 ? 0 : 1;
}

void
printResult(const perfbench::Checks &checks,
            const std::vector<Metric> &metrics)
{
    for (const auto &metric : metrics)
        std::printf("%-36s %.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<long long>(checks.attempted),
                static_cast<long long>(checks.failed));
    for (size_t i = 0; i < metrics.size(); i++) {
        // JSON has no NaN or infinity; a non-finite figure reads 0.
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    args.checkUnknown(
        {"workload", "seed", "seconds", "trace", "selftest"});
    if (args.has("selftest"))
        return selftest(args.getString("selftest"));

    const std::string name = args.getString("workload");
    if (name.empty())
        util::fatal("perfbench: --workload is required (one of "
                    "sweep_conv_b4, sweep_propagated, serve_ideal, "
                    "serve_faulted)");
    const int64_t seed = args.getInt("seed", 0x5eed);
    if (seed < 0)
        util::fatal("perfbench: --seed must be non-negative");
    const double seconds = args.getDouble("seconds", 10.0);
    if (!(seconds > 0.0))
        util::fatal("perfbench: --seconds must be positive");
    const int64_t trace = args.getInt("trace", 0);
    if (trace != 0 && trace != 1)
        util::fatal("perfbench: --trace must be 0 or 1");

    perfbench::Workload workload =
        perfbench::makeWorkload(name, static_cast<uint64_t>(seed));
    workload.setThreads(kThreads);
    std::printf("# perfbench workload=%s seed=%lld threads=%d "
                "trace=%lld seconds=%g\n",
                name.c_str(), static_cast<long long>(seed), kThreads,
                static_cast<long long>(trace), seconds);

    perfbench::Checks checks;
    std::vector<Metric> metrics =
        trace ? runTraced(workload, seconds, checks)
              : runUntraced(workload, seconds, checks);
    printResult(checks, metrics);
    return 0;
}
