/**
 * @file
 * In-memory span recorder for the benchmark's traced replay.
 *
 * The replay wraps every public library call it makes in a Span; a
 * span records its name, its parent (the innermost span open when it
 * started) and its steady_clock interval. A span's *self* time is its
 * duration minus the durations of its direct children, so self times
 * partition the traced wall time: whatever no span covers is the
 * replay's own bookkeeping (trace.unattributed_s). Counters
 * accumulate beside the spans, at the same call boundaries.
 *
 * The replay is serial, so the recorder is single-threaded by design.
 */

#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    /** RAII span: open on construction, closed on destruction. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::string name)
            : tracer_(tracer), index_(tracer.open(std::move(name)))
        {
        }
        ~Span() { tracer_.close(index_); }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Rename before closing (e.g. once a lookup proves a miss). */
        void rename(std::string name)
        {
            tracer_.records_[index_].name = std::move(name);
        }

      private:
        Tracer &tracer_;
        size_t index_;
    };

    /** Add @p value to counter @p name. */
    void add(const std::string &name, double value)
    {
        counters_[name] += value;
    }

    /** Counter @p name (0 when never added to). */
    double counter(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : it->second;
    }

    /** Self seconds summed per span name. */
    std::map<std::string, double> selfSeconds() const
    {
        std::map<std::string, double> self;
        for (const auto &r : records_)
            self[r.name] += seconds(r.end - r.start) - r.childSeconds;
        return self;
    }

    /** Sum of every span's self time (== top-level span time). */
    double totalSelfSeconds() const
    {
        double total = 0.0;
        for (const auto &[name, s] : selfSeconds())
            total += s;
        return total;
    }

    static double seconds(Clock::duration d)
    {
        return std::chrono::duration<double>(d).count();
    }

  private:
    struct Record
    {
        std::string name;
        long parent = -1;
        Clock::time_point start;
        Clock::time_point end;
        double childSeconds = 0.0;
    };

    size_t open(std::string name)
    {
        Record r;
        r.name = std::move(name);
        r.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
        records_.push_back(std::move(r));
        open_.push_back(records_.size() - 1);
        records_.back().start = Clock::now();
        return records_.size() - 1;
    }

    void close(size_t index)
    {
        Record &r = records_[index];
        r.end = Clock::now();
        open_.pop_back();
        if (r.parent >= 0)
            records_[static_cast<size_t>(r.parent)].childSeconds +=
                seconds(r.end - r.start);
    }

    std::vector<Record> records_;
    std::vector<size_t> open_;
    std::map<std::string, double> counters_;
};

} // namespace perfbench
