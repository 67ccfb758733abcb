#include "sim/serving/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
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
 * A fresh request is only its trace id, whose arrival (= entry) cycle
 * the shared trace holds. Ids are consecutive trace indices unless
 * sheds skipped some, which jumps_ records, so the fresh FIFO is a
 * count.
 */
class DispatchQueue
{
  public:
    explicit DispatchQueue(const ArrivalTrace &trace) : trace_(trace) {}

    size_t size() const { return fresh_ + retried_.size(); }
    bool empty() const { return fresh_ == 0 && retried_.empty(); }
    /** Smallest trace index a queued fresh request reads (or -1). */
    int freshFront() const { return fresh_ > 0 ? frontId_ : -1; }

    void
    pushFresh(int id)
    {
        if (fresh_ == 0)
            frontId_ = id;
        else if (id != nextId_)
            jumps_.push_back({popped_ + static_cast<int64_t>(fresh_), id});
        nextId_ = id + 1;
        fresh_++;
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
        if (retried_.empty() && jumps_.empty())
            return trace_.cycle(frontId_ + static_cast<int>(k));
        FreshWalk fresh(*this);
        for (size_t r = 0;; k--) {
            const bool fresh_leads =
                fresh.left > 0 &&
                (r == retried_.size() ||
                 trace_.cycle(fresh.id) < retried_[r].first);
            const uint64_t entry =
                fresh_leads ? trace_.cycle(fresh.id) : retried_[r++].first;
            if (fresh_leads)
                fresh.next();
            if (k == 0)
                return entry;
        }
    }

    Request
    pop()
    {
        if (fresh_ == 0 ||
            (!retried_.empty() &&
             retried_.front().first <= trace_.cycle(frontId_))) {
            const Request r = retried_.front().second;
            retried_.pop_front();
            return r;
        }
        const Request r{frontId_, 0, trace_.cycle(frontId_)};
        fresh_--;
        frontId_++;
        popped_++;
        if (!jumps_.empty() && jumps_.front().first == popped_) {
            frontId_ = jumps_.front().second;
            jumps_.pop_front();
        }
        return r;
    }

  private:
    /** The queued fresh ids in order, from the front. */
    struct FreshWalk
    {
        explicit FreshWalk(const DispatchQueue &q)
            : queue(q), id(q.frontId_), left(q.fresh_)
        {
        }

        void
        next()
        {
            left--;
            id++;
            if (jump < queue.jumps_.size() &&
                queue.jumps_[jump].first ==
                    queue.popped_ + static_cast<int64_t>(queue.fresh_ - left))
                id = queue.jumps_[jump++].second;
        }

        const DispatchQueue &queue;
        int id;
        size_t left;
        size_t jump = 0;
    };

    const ArrivalTrace &trace_;
    size_t fresh_ = 0; ///< Queued fresh requests.
    std::deque<std::pair<int64_t, int>> jumps_; ///< (push no., id).
    int64_t popped_ = 0; ///< Fresh requests popped so far.
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
 *
 * The fleet reads a shared ArrivalTrace that may not be fully drawn.
 * It plans only with maxBatch arrivals drawn past its cursor (or the
 * whole trace), and drains no further than the last drawn arrival's
 * cycle: arrivals rise strictly, so every event up to it is known.
 * There advance() pauses; on resume the loop plans again, which by
 * the rule above is the plan it left, since only arrivals and
 * completions came between.
 */
class Fleet
{
  public:
    Fleet(const BatchCostCurve &curve, const ServingConfig &config,
          const ArrivalTrace &trace)
        : curve_(curve), config_(config), n_(config.requests),
          trace_(trace), pending_(trace)
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

    /**
     * Play the trace as far as its first @p drawn arrivals allow;
     * done() once every request is resolved (or stranded).
     */
    void advance(int drawn);
    bool done() const { return done_; }
    /** Trace index of the next request to arrive. */
    int cursor() const { return next_; }

    /** Smallest trace index the fleet will still read. */
    int
    low() const
    {
        const int front = pending_.freshFront();
        return front >= 0 ? front : next_;
    }

    /** The report on the whole trace, once done(). */
    ServingReport report();

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

    /** True when the next arrival is drawn and comes at cycle @p t. */
    bool
    arrivesAt(uint64_t t) const
    {
        return next_ < drawn_ && trace_.cycle(next_) == t;
    }

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
    const ArrivalTrace &trace_;
    int drawn_ = 0; ///< The trace's drawn count advance() was given.
    int next_ = 0;  ///< Trace index of the next request to arrive.
    DispatchQueue pending_;
    std::vector<Instance> fleet_;
    std::priority_queue<FleetEvent, std::vector<FleetEvent>,
                        FleetEventAfter>
        events_;
    uint64_t now_ = 0; ///< Last drained cycle; no launch before it.
    int resolved_ = 0;
    bool done_ = false;
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
        pending_.pushFresh(request.id);
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
        size_t quiet = static_cast<size_t>(drawn_ - next_);
        const size_t cap = static_cast<size_t>(config_.queueCap);
        if (cap > 0)
            quiet = std::min(quiet, cap - std::min(size, cap));
        const size_t mark = static_cast<size_t>(config_.degradeWatermark);
        if (size < mark)
            quiet = std::min(quiet, mark - 1 - size);
        for (; quiet > 0 && trace_.cycle(next_) <= last; quiet--)
            pending_.pushFresh(next_++);
        // The next arrival sheds or reaches the watermark: its cycle
        // is the last one to drain.
        const bool stop = next_ < drawn_ && trace_.cycle(next_) <= last;
        if (stop)
            last = trace_.cycle(next_);
        completeThrough(last);
        if (resolved_ == n_)
            return true; // No request is left to arrive or finish.
        if (stop) {
            while (arrivesAt(last))
                admit(last, {next_++, 0, last}, false);
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
            if (arrivesAt(t) &&
                (!event_due || events_.top().kind > EventKind::Arrival)) {
                admit(t, {next_++, 0, t}, false);
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

void
Fleet::advance(int drawn)
{
    drawn_ = drawn;
    while (resolved_ < n_) {
        // The plan may read maxBatch arrivals past the cursor.
        if (drawn_ < n_ && drawn_ - next_ < config_.policy.maxBatch)
            return;
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
        if (occupancy == 0 && next_ == n_)
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
                occupancy > 0 ? pending_.entryAt(0) : trace_.cycle(next_);
            uint64_t fill;
            if (occupancy >= max_batch) {
                fill = pending_.entryAt(max_batch - 1);
            } else {
                // Estimate the fill from the trace; retries still in
                // backoff are unknowable to a dispatcher.
                const size_t ahead = max_batch - occupancy - 1;
                fill = ahead < static_cast<size_t>(n_ - next_)
                           ? trace_.cycle(next_ + static_cast<int>(ahead))
                           : kNeverFills;
                // A requeued head can outrank older trace arrivals.
                fill = std::max(fill, head);
            }
            start = dispatchCycle(policy, free_at, head, fill);
        }
        if (!inst || start > now_) {
            // Past the last drawn arrival nothing is known yet.
            const uint64_t frontier =
                drawn_ == n_ ? kNoFault : trace_.cycle(drawn_ - 1);
            if (drainThrough(std::min(start, frontier)))
                continue; // Something changed: plan again.
            if (start > frontier)
                return; // Paused at the frontier; plan again on resume.
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
    done_ = true;
}

ServingReport
Fleet::report()
{
    PRA_CHECK(done_, "Fleet: report before the trace is played");
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

/** Runs tasks on a pool, or in submission order on the caller. */
class TaskRunner
{
  public:
    explicit TaskRunner(util::ThreadPool *pool) : pool_(pool) {}

    void
    submit(std::function<void()> task)
    {
        if (pool_)
            pool_->submit(std::move(task));
        else
            queue_.push_back(std::move(task));
    }

    /** Return once every task, also those tasks submit, has run. */
    void
    run()
    {
        if (pool_) {
            pool_->wait();
            return;
        }
        while (!queue_.empty()) {
            std::function<void()> task = std::move(queue_.front());
            queue_.pop_front();
            task();
        }
    }

  private:
    util::ThreadPool *pool_;
    std::deque<std::function<void()>> queue_;
};

/**
 * One offered rate of a round: its trace, every fleet that reads it,
 * and what their tasks share, under mutex.
 *
 * One draw task at a time extends the trace while fleet tasks read
 * it: each fleet advances as far as the blocks drawn when it started
 * allow, then queues again at once if more were drawn meanwhile, or
 * waits for the next block. The draw runs at most kDrawAhead blocks
 * (plus a batch) past the slowest fleet, and each appended block
 * frees every block below the lowest index a fleet still reads.
 * Fleets pause only where the rule in Fleet's comment makes resuming
 * the same step, so no schedule changes a report.
 */
struct RateGroup
{
    static constexpr int64_t kDrawAhead = 2;

    explicit RateGroup(const ServingConfig &config)
        : config(config), trace(config.arrival, config.requests)
    {
    }

    /** Start the draw task if none runs and the fleets need one. */
    void
    drawIfBehind(TaskRunner &runner)
    {
        if (drawing || trace.complete())
            return;
        const int64_t slowest =
            *std::min_element(cursors.begin(), cursors.end());
        if (trace.drawn() - slowest >=
            kDrawAhead * ArrivalTrace::kBlock + config.policy.maxBatch)
            return;
        drawing = true;
        runner.submit([this, &runner] { draw(runner); });
    }

    void
    draw(TaskRunner &runner)
    {
        // Only this task changes the trace, so it draws unlocked.
        std::vector<uint64_t> block = trace.drawNext();
        std::lock_guard<std::mutex> lock(mutex);
        trace.append(std::move(block));
        trace.release(*std::min_element(lows.begin(), lows.end()));
        for (size_t f : waiting)
            runner.submit([this, &runner, f] { play(runner, f); });
        waiting.clear();
        drawing = false;
        drawIfBehind(runner);
    }

    void
    play(TaskRunner &runner, size_t f)
    {
        Fleet &fleet = fleets[f];
        const int drawn = [this] {
            std::lock_guard<std::mutex> lock(mutex);
            return trace.drawn();
        }();
        fleet.advance(drawn);
        std::lock_guard<std::mutex> lock(mutex);
        lows[f] = fleet.done() ? trace.count() : fleet.low();
        cursors[f] = fleet.done() ? trace.count() : fleet.cursor();
        if (!fleet.done()) {
            if (trace.drawn() > drawn)
                runner.submit([this, &runner, f] { play(runner, f); });
            else
                waiting.push_back(f);
        }
        drawIfBehind(runner);
    }

    const ServingConfig config;
    ArrivalTrace trace;
    std::deque<Fleet> fleets;

    std::mutex mutex;
    bool drawing = false;        ///< A draw task is queued or running.
    std::vector<int> lows;       ///< [f]: fleet f's low() when it paused.
    std::vector<int> cursors;    ///< [f]: fleet f's cursor() then.
    std::vector<size_t> waiting; ///< Fleets paused for the next block.
};

/**
 * Play every fleet of @p round to the end: one task per fleet and a
 * draw task per rate, on @p pool (inline without one).
 */
void
playRound(std::deque<RateGroup> &round, util::ThreadPool *pool)
{
    TaskRunner runner(pool);
    for (RateGroup &group : round) {
        std::lock_guard<std::mutex> lock(group.mutex);
        group.lows.assign(group.fleets.size(), 0);
        group.cursors.assign(group.fleets.size(), 0);
        for (size_t f = 0; f < group.fleets.size(); f++)
            group.waiting.push_back(f);
        group.drawIfBehind(runner);
    }
    runner.run();
}

} // namespace

ServingReport
simulateServing(const BatchCostCurve &curve, const ServingConfig &config)
{
    checkServingConfig(config, curve.batchSystemCycles.size());
    std::deque<RateGroup> round;
    RateGroup &group = round.emplace_back(config);
    Fleet &fleet = group.fleets.emplace_back(curve, group.config,
                                             group.trace);
    playRound(round, nullptr);
    return fleet.report();
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

    // One event loop per (curve, rate); each rate's loops share one
    // trace. A round plays a block of consecutive rates holding at
    // least one fleet per worker, so the serial run keeps one trace.
    const size_t rates = options.offeredPerSecond.size();
    std::vector<ServingReport> reports(curves.size() * rates);
    if (curves.empty())
        return reports;
    const size_t threads = static_cast<size_t>(std::max(1, options.threads));
    const size_t per_round = (threads + curves.size() - 1) / curves.size();
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(options.threads);
    for (size_t first = 0; first < rates; first += per_round) {
        const size_t last = std::min(rates, first + per_round);
        std::deque<RateGroup> round;
        for (size_t r = first; r < last; r++) {
            ServingConfig config = options.serving;
            config.arrival.meanGapCycles =
                kCyclesPerSecond / options.offeredPerSecond[r];
            RateGroup &group = round.emplace_back(config);
            for (const BatchCostCurve &curve : curves)
                group.fleets.emplace_back(curve, group.config,
                                          group.trace);
        }
        playRound(round, pool.get());
        for (size_t r = first; r < last; r++)
            for (size_t c = 0; c < curves.size(); c++)
                reports[c * rates + r] =
                    round[r - first].fleets[c].report();
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
    // Every dispatch scans the whole fleet for its earliest-free
    // instance, and a sweep holds one fleet per (curve, rate) of a
    // round at once.
    constexpr int kMaxInstances = 4096;
    if (options.serving.instances > kMaxInstances)
        util::fatal("--instances must be at most " +
                    std::to_string(kMaxInstances) +
                    ": the planner scans every instance on each "
                    "dispatch (got " +
                    std::to_string(options.serving.instances) + ")");
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
