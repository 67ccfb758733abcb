#include "sim/serving/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <queue>
#include <tuple>
#include <utility>

#include "sim/memory/memory_model.h"
#include "util/args.h"
#include "util/csv.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/saturating.h"
#include "util/stats.h"

namespace pra {
namespace sim {

using util::roundTrip;

namespace {

/** A curve with its names set and room for @p max_batch prefixes. */
BatchCostCurve
emptyCurve(const dnn::Network &network, const std::string &engine,
           int max_batch)
{
    BatchCostCurve curve;
    curve.networkName = network.name;
    curve.engineName = engine;
    curve.batchSystemCycles.reserve(static_cast<size_t>(max_batch));
    return curve;
}

/**
 * The one cost-curve fold: add batch image b-1 (b = the curve's next
 * prefix) to the running batch @p acc (accumulateBatchImage), then
 * price prefix b — stamp the batch size and apply the memory model
 * to a copy — so entry b-1 reproduces a standalone --batch=b sweep
 * of the cell bit for bit. Images must arrive in image order.
 */
void
foldBatchImage(const dnn::Network &network, const AccelConfig &accel,
               NetworkResult image, NetworkResult &acc,
               BatchCostCurve &curve)
{
    const int b = static_cast<int>(curve.batchSystemCycles.size()) + 1;
    if (b == 1)
        acc = std::move(image);
    else
        accumulateBatchImage(acc, image);
    NetworkResult priced = acc;
    for (auto &layer : priced.layers)
        layer.batchImages = b;
    applyMemoryModel(network, accel, priced);
    curve.batchSystemCycles.push_back(priced.totalSystemCycles());
}

} // namespace

BatchCostCurve
buildBatchCostCurve(const dnn::Network &network, const Engine &engine,
                    const WorkloadSource &source,
                    const AccelConfig &accel, const SampleSpec &sample,
                    const util::InnerExecutor &exec, int max_batch)
{
    PRA_CHECK(max_batch >= 1,
              "buildBatchCostCurve: max_batch must be >= 1");
    BatchCostCurve curve = emptyCurve(network, engine.name(), max_batch);
    // One engine pass per image, so the whole curve costs max_batch
    // passes instead of one per (prefix, image) pair.
    NetworkResult acc;
    for (int i = 0; i < max_batch; i++)
        foldBatchImage(network, accel,
                       engine.runNetwork(network, source.withImage(i),
                                         accel, sample, exec),
                       acc, curve);
    return curve;
}

namespace {

/**
 * Fleet events. The enumerator order is the tie-break at equal
 * cycles and is load-bearing: completions are observed before the
 * fail-stop of the same cycle (a batch whose interval is [start,
 * done) finished), repairs before new work is admitted, and
 * arrivals/retries queue before the dispatcher looks. Completions
 * live with their instance and arrivals with their cursor; the heap
 * holds the rest.
 */
enum class EventKind : int {
    BatchDone = 0,
    InstanceFail = 1,
    InstanceRepair = 2,
    Arrival = 3,
    RetryReady = 4,
};

/** A request in the queue, in flight, or backing off for a retry. */
struct Request
{
    int id = 0;           ///< Trace index (retry-jitter counter).
    int tries = 0;        ///< Dispatch attempts consumed so far.
    uint64_t arrival = 0; ///< Trace arrival cycle (latency origin).
};

struct FleetEvent
{
    uint64_t cycle = 0;
    EventKind kind = EventKind::InstanceFail;
    int idx = 0;     ///< Instance, or request id for RetryReady.
    Request request; ///< The retrying request (RetryReady only).
};

/** Min-heap order over the deterministic (cycle, kind, idx) total
 *  order. */
struct FleetEventAfter
{
    bool
    operator()(const FleetEvent &a, const FleetEvent &b) const
    {
        return std::tie(a.cycle, a.kind, a.idx) >
               std::tie(b.cycle, b.kind, b.idx);
    }
};

/**
 * The dispatch queue, in (entry cycle, request id) order: two FIFOs
 * merged on read. Fresh arrivals enter in trace order and retries in
 * heap (cycle, id) order. On equal entry cycles a retry leads: it
 * arrived before its killed launch, so before anything arriving now.
 * A fresh request costs only its arrival cycle; its id is the next
 * trace index unless sheds skipped some, which jumps_ records.
 */
class DispatchQueue
{
  public:
    size_t size() const { return fresh_.size() + retried_.size(); }
    bool empty() const { return fresh_.empty() && retried_.empty(); }

    void
    pushFresh(int id, uint64_t arrival)
    {
        if (fresh_.empty())
            frontId_ = id;
        else if (id != nextId_)
            jumps_.push_back({pushed_, id});
        nextId_ = id + 1;
        pushed_++;
        fresh_.push_back(arrival);
    }

    void
    pushRetry(uint64_t t, const Request &r)
    {
        PRA_CHECK(retried_.empty() ||
                      std::tie(retried_.back().first,
                               retried_.back().second.id) <
                          std::tie(t, r.id),
                  "DispatchQueue: retries must enter in order");
        retried_.push_back({t, r});
    }

    /** Entry cycle of the k-th queued request in merged order. */
    uint64_t
    entryAt(size_t k) const
    {
        if (retried_.empty())
            return fresh_[k];
        for (size_t f = 0, r = 0;; k--) {
            const uint64_t entry =
                freshLeads(f, r) ? fresh_[f++] : retried_[r++].first;
            if (k == 0)
                return entry;
        }
    }

    Request
    pop()
    {
        if (fresh_.empty() || (!retried_.empty() &&
                               retried_.front().first <= fresh_.front())) {
            const Request r = retried_.front().second;
            retried_.pop_front();
            return r;
        }
        const Request r{frontId_++, 0, fresh_.front()};
        fresh_.pop_front();
        popped_++;
        if (!jumps_.empty() && jumps_.front().first == popped_) {
            frontId_ = jumps_.front().second;
            jumps_.pop_front();
        }
        return r;
    }

  private:
    bool
    freshLeads(size_t f, size_t r) const
    {
        return f < fresh_.size() &&
               (r == retried_.size() || fresh_[f] < retried_[r].first);
    }

    std::deque<uint64_t> fresh_; ///< Arrival (= entry) cycles.
    std::deque<std::pair<int64_t, int>> jumps_; ///< (push no., id).
    int64_t pushed_ = 0;
    int64_t popped_ = 0;
    int frontId_ = 0;
    int nextId_ = 0;
    std::deque<std::pair<uint64_t, Request>> retried_;
};

/**
 * The fleet loop: identical instances behind one dispatch queue,
 * with fail-stop faults (killed batches retried with backoff, or
 * failed for good), a bounded queue that sheds, and the degrade
 * watermark. Each step plans the next launch as an event-driven
 * dispatcher would decide it — the earliest-free instance in service
 * (lowest id on ties; a busy one counts from its completion) at the
 * dispatchCycle of the queue head, or of the next arrival — then
 * drains events in (cycle, kind, idx) order up to it. Completions and
 * arrivals leave the plan standing: the instance already won on its
 * free cycle, the head stays, and an arrival is the very fill the
 * estimate read from the trace. Any other event (fail-stop, repair,
 * retry, a shed, or reaching the watermark) stops the drain after its
 * cycle, and the loop plans again. Fault-free, nothing stops it and
 * each step is a step of the pull loop over the trace (test-pinned).
 */
class Fleet
{
  public:
    Fleet(const BatchCostCurve &curve, const ServingConfig &config)
        : curve_(curve), config_(config), n_(config.requests),
          arrivals_(config.arrival, n_, config.policy.maxBatch)
    {
        for (double cost : curve.batchSystemCycles)
            costCycles_.push_back(std::max<uint64_t>(
                1, static_cast<uint64_t>(std::llround(cost))));
        for (int i = 0; i < config.instances; i++) {
            fleet_.push_back(
                {FaultTimeline(config.faults, i), true, 0, 0, {}});
            if (fleet_.back().timeline.failCycle() != kNoFault)
                events_.push({fleet_.back().timeline.failCycle(),
                              EventKind::InstanceFail, i, {}});
        }
    }

    /** Play the whole trace and report on it. */
    ServingReport run();

  private:
    struct Instance
    {
        FaultTimeline timeline;
        bool up = true;
        uint64_t freeAt = 0;   ///< Completion of the last launch.
        uint64_t launchAt = 0; ///< Launch of the in-flight batch.
        std::vector<Request> flight;
    };

    bool admit(uint64_t t, const Request &request, bool retry);
    void handle(const FleetEvent &ev, uint64_t t);
    bool drainThrough(uint64_t target);
    void completeThrough(uint64_t last);

    void
    resolve(uint64_t t, int requests)
    {
        resolved_ += requests;
        report_.makespanCycles = std::max(report_.makespanCycles, t);
    }

    const BatchCostCurve &curve_;
    const ServingConfig &config_;
    const int n_;
    std::vector<uint64_t> costCycles_; ///< [b-1]: charged for b.
    ArrivalCursor arrivals_;
    DispatchQueue pending_;
    std::vector<Instance> fleet_;
    std::priority_queue<FleetEvent, std::vector<FleetEvent>,
                        FleetEventAfter>
        events_;
    uint64_t now_ = 0; ///< Last drained cycle; no launch before it.
    int resolved_ = 0;
    ServingReport report_; ///< Counters filled as the trace plays.
    util::Histogram latencies_ = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    util::Histogram faultedLatencies_ = util::Histogram::logSpaced(
        kLatencyHistogramMax, kLatencyHistogramSubBits);
    double busyCycles_ = 0.0;
    int64_t dispatchedImages_ = 0;
};

/**
 * A request entering the queue at cycle t: shed at the cap (the
 * bounded queue's loud load-shedding), queued otherwise. True when
 * that stops the drain: a shed, or reaching the watermark.
 */
bool
Fleet::admit(uint64_t t, const Request &request, bool retry)
{
    if (config_.queueCap > 0 &&
        pending_.size() >= static_cast<size_t>(config_.queueCap)) {
        report_.shedRequests++;
        resolve(t, 1);
        return true;
    }
    if (retry)
        pending_.pushRetry(t, request);
    else
        pending_.pushFresh(request.id, t);
    return config_.degradeWatermark > 0 &&
           pending_.size() ==
               static_cast<size_t>(config_.degradeWatermark);
}

/** Apply one fail-stop, repair or retry. */
void
Fleet::handle(const FleetEvent &ev, uint64_t t)
{
    if (ev.kind == EventKind::RetryReady) {
        admit(t, ev.request, true);
        return;
    }
    Instance &inst = fleet_[static_cast<size_t>(ev.idx)];
    const bool fail = ev.kind == EventKind::InstanceFail;
    inst.up = !fail;
    if (!fail) {
        inst.freeAt = t;
        inst.timeline.advance();
    } else {
        report_.instanceFailures++;
    }
    if (fail && !inst.flight.empty()) {
        // Fail-stop mid-batch: the whole batch is lost.
        report_.killedBatches++;
        busyCycles_ += static_cast<double>(t - inst.launchAt);
        for (const Request &r : inst.flight) {
            if (r.tries > config_.retry.maxRetries) {
                report_.permanentFailures++;
                resolve(t, 1);
                continue;
            }
            report_.retries++;
            const uint64_t ready = util::saturatingAdd(
                t, retryBackoffCycles(config_.retry, config_.faults.seed,
                                      r.id, r.tries));
            events_.push({ready, EventKind::RetryReady, r.id, r});
        }
        inst.flight.clear();
    }
    // Each of a fail-stop and a repair schedules the other.
    const uint64_t next =
        fail ? inst.timeline.repairCycle() : inst.timeline.failCycle();
    if (next != kNoFault)
        events_.push({next,
                      fail ? EventKind::InstanceRepair
                           : EventKind::InstanceFail,
                      ev.idx, {}});
}

/**
 * Drain events through cycle @p target in (cycle, kind, idx) order,
 * completions first and the cursor at EventKind::Arrival's rank.
 * True when an event that stops the drain, or the last resolution,
 * ended it early (now_ is that cycle); false once all is drained.
 */
bool
Fleet::drainThrough(uint64_t target)
{
    for (;;) {
        // Up to the next heap event (never on cycle 0), arrivals and
        // completions commute — neither changes what the other sees —
        // so queue the arrivals, then complete batches in (cycle,
        // instance) order.
        const bool have_heap = !events_.empty();
        uint64_t last = have_heap
                            ? std::min(target, events_.top().cycle - 1)
                            : target;
        const size_t size = pending_.size();
        size_t quiet = static_cast<size_t>(arrivals_.remaining());
        const size_t cap = static_cast<size_t>(config_.queueCap);
        if (cap > 0)
            quiet = std::min(quiet, cap - std::min(size, cap));
        const size_t mark = static_cast<size_t>(config_.degradeWatermark);
        if (size < mark)
            quiet = std::min(quiet, mark - 1 - size);
        for (; quiet > 0 && arrivals_.cycle() <= last; quiet--) {
            pending_.pushFresh(arrivals_.index(), arrivals_.cycle());
            arrivals_.advance();
        }
        // The next arrival sheds or reaches the watermark: its cycle
        // is the last one to drain.
        const bool stop =
            arrivals_.remaining() > 0 && arrivals_.cycle() <= last;
        if (stop)
            last = arrivals_.cycle();
        completeThrough(last);
        if (resolved_ == n_)
            return true; // No request is left to arrive or finish.
        if (stop) {
            while (arrivals_.remaining() > 0 && arrivals_.cycle() == last) {
                admit(last, {arrivals_.index(), 0, last}, false);
                arrivals_.advance();
            }
            now_ = last;
            return true;
        }
        if (!have_heap || events_.top().cycle > target) {
            now_ = target;
            return false;
        }
        // A heap event's cycle, which always stops the drain: its
        // completions, then the heap and the arrivals merged by kind.
        const uint64_t t = events_.top().cycle;
        completeThrough(t);
        for (;;) {
            const bool event_due =
                !events_.empty() && events_.top().cycle == t;
            if (arrivals_.remaining() > 0 && arrivals_.cycle() == t &&
                (!event_due || events_.top().kind > EventKind::Arrival)) {
                admit(t, {arrivals_.index(), 0, t}, false);
                arrivals_.advance();
            } else if (event_due) {
                const FleetEvent ev = events_.top();
                events_.pop();
                handle(ev, t);
            } else {
                now_ = t;
                return true;
            }
        }
    }
}

/**
 * Complete every batch due by cycle @p last, in (cycle, instance)
 * order; a saturated completion never comes.
 */
void
Fleet::completeThrough(uint64_t last)
{
    for (;;) {
        Instance *next = nullptr;
        for (Instance &inst : fleet_)
            if (!inst.flight.empty() && inst.freeAt <= last &&
                inst.freeAt != kNoFault &&
                (!next || inst.freeAt < next->freeAt))
                next = &inst;
        if (!next)
            return;
        const uint64_t t = next->freeAt;
        for (const Request &r : next->flight) {
            latencies_.add(t - r.arrival);
            if (r.tries > 1)
                faultedLatencies_.add(t - r.arrival);
        }
        report_.completed += static_cast<int>(next->flight.size());
        resolve(t, static_cast<int>(next->flight.size()));
        busyCycles_ += static_cast<double>(t - next->launchAt);
        next->flight.clear();
    }
}

ServingReport
Fleet::run()
{
    while (resolved_ < n_) {
        // Plan: the earliest-free instance in service; a down one
        // sorts like one whose completion saturated — it never frees.
        const size_t occupancy = pending_.size();
        Instance *inst = nullptr;
        uint64_t free_at = kNoFault;
        for (Instance &cand : fleet_) {
            const uint64_t key = cand.up ? cand.freeAt : kNoFault;
            if (key < free_at) {
                free_at = key;
                inst = &cand;
            }
        }
        if (occupancy == 0 && arrivals_.remaining() == 0)
            inst = nullptr;
        BatchingPolicy policy = config_.policy;
        const bool degrade =
            config_.degradeWatermark > 0 &&
            occupancy >= static_cast<size_t>(config_.degradeWatermark);
        if (degrade) {
            // Watermark crossed: shed to half the batch cap and greedy
            // launches before the cap has to drop.
            policy.maxBatch = std::max(1, policy.maxBatch / 2);
            policy.timeoutCycles = 0;
        }
        const size_t max_batch = static_cast<size_t>(policy.maxBatch);
        uint64_t start = kNoFault;
        if (inst) {
            const uint64_t head =
                occupancy > 0 ? pending_.entryAt(0) : arrivals_.cycle();
            uint64_t fill;
            if (occupancy >= max_batch) {
                fill = pending_.entryAt(max_batch - 1);
            } else {
                // Estimate the fill from the trace; retries still in
                // backoff are unknowable to a dispatcher.
                const size_t ahead = max_batch - occupancy - 1;
                fill = ahead < static_cast<size_t>(arrivals_.remaining())
                           ? arrivals_.cycle(static_cast<int>(ahead))
                           : kNeverFills;
                // A requeued head can outrank older trace arrivals.
                fill = std::max(fill, head);
            }
            start = dispatchCycle(policy, free_at, head, fill);
        }
        if (!inst || start > now_) {
            if (drainThrough(start))
                continue; // Something changed: plan again.
            if (!inst)
                break; // Every event drained.
        }

        // Launch at max(start, now_); start < now_ only after a
        // watermark flip mid-wait.
        PRA_CHECK(inst->up && inst->flight.empty(),
                  "Fleet: planned instance is busy at launch");
        const uint64_t launch = std::max(start, now_);
        while (inst->flight.size() < max_batch && !pending_.empty()) {
            Request r = pending_.pop();
            r.tries++;
            inst->flight.push_back(r);
        }
        const size_t take = inst->flight.size();
        inst->launchAt = launch;
        inst->freeAt = util::saturatingAdd(launch, costCycles_[take - 1]);
        report_.dispatches++;
        dispatchedImages_ += static_cast<int64_t>(take);
        if (degrade)
            report_.degradedDispatches++;
        now_ = launch;
    }
    // The loop can only run dry with unresolved requests when every
    // instance wedged permanently (saturated repair/completion
    // times): account the stranded requests as permanent failures
    // rather than stalling or spinning.
    report_.permanentFailures += n_ - resolved_;

    report_.networkName = curve_.networkName;
    report_.engineName = curve_.engineName;
    report_.arrivalKind = config_.arrival.kind;
    report_.offeredPerSecond =
        kCyclesPerSecond / config_.arrival.meanGapCycles;
    report_.instances = config_.instances;
    report_.maxBatch = config_.policy.maxBatch;
    report_.timeoutCycles = config_.policy.timeoutCycles;
    report_.requests = n_;
    // The degraded layer is configured: this decides only the CSV's
    // column shape, so fault-free runs keep the historical columns.
    report_.degraded = faultsEnabled(config_.faults) ||
                      config_.queueCap > 0 || config_.degradeWatermark > 0;
    report_.mtbfCycles = config_.faults.mtbfCycles;
    report_.mttrCycles = config_.faults.mttrCycles;
    report_.faultKind = config_.faults.kind;
    report_.queueCap = config_.queueCap;
    report_.degradeWatermark = config_.degradeWatermark;
    report_.retryLimit = config_.retry.maxRetries;
    report_.backoffBaseCycles = config_.retry.backoffBaseCycles;
    report_.meanBatch =
        report_.dispatches == 0
            ? 0.0
            : static_cast<double>(dispatchedImages_) /
                  static_cast<double>(report_.dispatches);
    report_.p50Cycles = latencies_.percentile(0.50);
    report_.p95Cycles = latencies_.percentile(0.95);
    report_.p99Cycles = latencies_.percentile(0.99);
    report_.meanLatencyCycles = latencies_.mean();
    const double span =
        static_cast<double>(std::max<uint64_t>(report_.makespanCycles, 1));
    report_.imagesPerSecond =
        static_cast<double>(report_.completed) * kCyclesPerSecond / span;
    report_.utilization =
        busyCycles_ / (static_cast<double>(config_.instances) * span);
    if (faultsEnabled(config_.faults)) {
        uint64_t up_cycles = 0;
        for (int i = 0; i < config_.instances; i++)
            up_cycles +=
                upCyclesBefore(config_.faults, i, report_.makespanCycles);
        report_.availability =
            static_cast<double>(up_cycles) /
            (static_cast<double>(config_.instances) * span);
    }
    report_.p99FaultedCycles = faultedLatencies_.count() > 0
                                  ? faultedLatencies_.percentile(0.99)
                                  : 0;
    return report_;
}

/**
 * Every serving-config contract, checked where it is cheap: on the
 * calling thread before a sweep builds a curve, and again per loop.
 * @p max_batch is the largest batch the cost curves cover.
 */
void
checkServingConfig(const ServingConfig &config, size_t max_batch)
{
    PRA_CHECK(config.instances >= 1,
              "simulateServing: need at least one instance");
    PRA_CHECK(config.requests >= 1,
              "simulateServing: need at least one request");
    PRA_CHECK(config.policy.maxBatch >= 1 &&
                  static_cast<size_t>(config.policy.maxBatch) <=
                      max_batch,
              "simulateServing: cost curve does not cover maxBatch");
    PRA_CHECK(config.queueCap >= 0,
              "simulateServing: queue cap must be non-negative");
    PRA_CHECK(config.degradeWatermark >= 0,
              "simulateServing: degrade watermark must be "
              "non-negative");
    PRA_CHECK(config.retry.maxRetries >= 0,
              "simulateServing: retry limit must be non-negative");
    if (faultsEnabled(config.faults))
        PRA_CHECK(config.faults.mttrCycles >= 1,
                  "simulateServing: mean repair time must be at "
                  "least one cycle when faults are enabled");
}

void
checkOfferedRates(const std::vector<double> &rates, const char *caller)
{
    PRA_CHECK(!rates.empty(),
              std::string(caller) + ": no offered rates");
    for (double rate : rates)
        PRA_CHECK(rate > 0.0 && rate <= kCyclesPerSecond,
                  std::string(caller) +
                      ": offered rate must be in (0, 1e9] images/s");
}

} // namespace

ServingReport
simulateServing(const BatchCostCurve &curve, const ServingConfig &config)
{
    checkServingConfig(config, curve.batchSystemCycles.size());
    return Fleet(curve, config).run();
}

std::vector<BatchCostCurve>
buildCostCurves(const std::vector<dnn::Network> &networks,
                const std::vector<EngineSelection> &engines,
                const EngineRegistry &registry,
                const ServingSweepOptions &options)
{
    const int max_batch = options.serving.policy.maxBatch;
    std::vector<BatchCostCurve> curves(networks.size() * engines.size());
    priceGrid(networks, engines, registry, options, max_batch, 0,
              curves.size(),
              [&](size_t cell, std::vector<NetworkResult> images) {
                  const dnn::Network &network =
                      networks[cell / engines.size()];
                  BatchCostCurve curve = emptyCurve(
                      network, images[0].engineName, max_batch);
                  NetworkResult acc;
                  for (auto &image : images)
                      foldBatchImage(network, options.accel,
                                     std::move(image), acc, curve);
                  curves[cell] = std::move(curve);
              });
    return curves;
}

std::vector<ServingReport>
playServing(const std::vector<BatchCostCurve> &curves,
            const ServingSweepOptions &options)
{
    checkOfferedRates(options.offeredPerSecond, "playServing");
    for (const auto &curve : curves)
        checkServingConfig(options.serving,
                           curve.batchSystemCycles.size());

    // One event loop per (cell, rate), each a pure function writing
    // its own slot, in fixed report order.
    const size_t rates = options.offeredPerSecond.size();
    std::vector<ServingReport> reports(curves.size() * rates);
    auto play = [&](size_t slot) {
        ServingConfig config = options.serving;
        config.arrival.meanGapCycles =
            kCyclesPerSecond / options.offeredPerSecond[slot % rates];
        reports[slot] = simulateServing(curves[slot / rates], config);
    };
    if (options.threads <= 1) {
        for (size_t slot = 0; slot < reports.size(); slot++)
            play(slot);
    } else {
        util::ThreadPool pool(options.threads);
        for (size_t slot = 0; slot < reports.size(); slot++)
            pool.submit([&play, slot] { play(slot); });
        pool.wait();
    }
    return reports;
}

std::vector<double>
parseOfferedRates(const std::string &list)
{
    std::vector<double> rates;
    for (const auto &item : util::splitList(list)) {
        double rate = 0.0;
        size_t parsed = 0;
        try {
            rate = std::stod(item, &parsed);
        } catch (...) {
            parsed = 0;
        }
        if (parsed != item.size() || !(rate > 0.0) ||
            rate > kCyclesPerSecond)
            util::fatal("--traffic rates must be positive images/s "
                        "up to 1e9 (got '" + item + "')");
        rates.push_back(rate);
    }
    if (rates.empty())
        util::fatal("--traffic lists no rates");
    return rates;
}

void
parseServingFlags(const util::ArgParser &args,
                  const std::string &default_traffic,
                  ServingSweepOptions &options)
{
    const bool smoke = args.getBool("smoke");
    options.offeredPerSecond = parseOfferedRates(args.getString(
        "traffic", smoke ? "1000,100000" : default_traffic));
    options.serving.arrival.kind =
        parseArrivalKind(args.getString("arrival", "poisson"));
    options.serving.arrival.seed = options.seed;
    options.serving.instances =
        args.getCount("instances", 1, 1, "a positive fleet size");
    options.serving.policy.maxBatch =
        args.getCount("max-batch", 8, 1, "a positive batch cap");
    const int64_t timeout = args.getInt("timeout", 1000000);
    if (timeout < 0)
        util::fatal("--timeout must be a non-negative cycle count "
                    "(got " + std::to_string(timeout) + ")");
    options.serving.policy.timeoutCycles =
        static_cast<uint64_t>(timeout);
    options.serving.requests = args.getCount(
        "requests", smoke ? 64 : 512, 1, "a positive trace length");
    // The arrival clock is a uint64 cycle count. A Poisson gap never
    // exceeds 53 ln 2 mean gaps (its uniform is at least 2^-53) plus
    // one cycle of rounding, so the slowest rate bounds the trace end.
    const double slowest = *std::min_element(
        options.offeredPerSecond.begin(), options.offeredPerSecond.end());
    const double span =
        static_cast<double>(options.serving.requests) *
        (kCyclesPerSecond / slowest * 53.0 * std::log(2.0) + 1.0);
    if (!(span < 0x1p63)) {
        char rate[32];
        std::snprintf(rate, sizeof rate, "%g", slowest);
        util::fatal(std::string("--traffic=") + rate + " with --requests=" +
                    std::to_string(options.serving.requests) +
                    " can run the arrival clock past 2^63 cycles; "
                    "raise the rate or shorten the trace");
    }
}

std::vector<ServingReport>
runServingSweep(const std::vector<dnn::Network> &networks,
                const std::vector<EngineSelection> &engines,
                const EngineRegistry &registry,
                const ServingSweepOptions &options)
{
    checkOfferedRates(options.offeredPerSecond, "runServingSweep");
    checkServingConfig(
        options.serving,
        static_cast<size_t>(options.serving.policy.maxBatch));
    return playServing(buildCostCurves(networks, engines, registry,
                                       options),
                       options);
}

void
writeServingCsv(std::ostream &out,
                const std::vector<ServingReport> &reports)
{
    util::CsvWriter csv(out);
    // The degraded-serving columns appear only when some report
    // configured the degraded layer, so historical (fault-free) CSVs
    // — and the committed goldens that pin them — keep their shape.
    bool degraded = false;
    for (const auto &r : reports)
        degraded = degraded || r.degraded;

    std::vector<std::string> header = {
        "network", "engine", "arrival", "offered_per_s",
        "instances", "max_batch", "timeout_cycles",
        "requests", "dispatches", "mean_batch",
        "p50_cycles", "p95_cycles", "p99_cycles",
        "mean_latency_cycles", "images_per_s",
        "utilization", "makespan_cycles"};
    if (degraded) {
        const char *extra[] = {
            "mtbf_cycles", "mttr_cycles", "fault_dist", "queue_cap",
            "degrade_watermark", "retry_limit", "backoff_cycles",
            "completed", "retries", "permanent_failures",
            "shed_requests", "killed_batches", "instance_failures",
            "degraded_dispatches", "availability",
            "p99_faulted_cycles"};
        header.insert(header.end(), std::begin(extra),
                      std::end(extra));
    }
    csv.writeHeader(header);

    for (const auto &r : reports) {
        std::vector<std::string> row = {
            r.networkName, r.engineName,
            arrivalKindName(r.arrivalKind),
            roundTrip(r.offeredPerSecond),
            std::to_string(r.instances),
            std::to_string(r.maxBatch),
            std::to_string(r.timeoutCycles),
            std::to_string(r.requests),
            std::to_string(r.dispatches),
            roundTrip(r.meanBatch),
            std::to_string(r.p50Cycles),
            std::to_string(r.p95Cycles),
            std::to_string(r.p99Cycles),
            roundTrip(r.meanLatencyCycles),
            roundTrip(r.imagesPerSecond),
            roundTrip(r.utilization),
            std::to_string(r.makespanCycles)};
        if (degraded) {
            const std::string tail[] = {
                std::to_string(r.mtbfCycles),
                std::to_string(r.mttrCycles),
                faultKindName(r.faultKind),
                std::to_string(r.queueCap),
                std::to_string(r.degradeWatermark),
                std::to_string(r.retryLimit),
                std::to_string(r.backoffBaseCycles),
                std::to_string(r.completed),
                std::to_string(r.retries),
                std::to_string(r.permanentFailures),
                std::to_string(r.shedRequests),
                std::to_string(r.killedBatches),
                std::to_string(r.instanceFailures),
                std::to_string(r.degradedDispatches),
                roundTrip(r.availability),
                std::to_string(r.p99FaultedCycles)};
            row.insert(row.end(), std::begin(tail), std::end(tail));
        }
        csv.writeRow(row);
    }
}

} // namespace sim
} // namespace pra
