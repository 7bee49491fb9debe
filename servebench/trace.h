// In-memory span tracer for the benchmark.
//
// Spans are recorded from the benchmark's own code around each call
// into a layer's public function: name, start, end, the enclosing span
// (its parent) and the request the call serves. Each recording thread
// owns one buffer, so recording takes no lock; buffers are merged when
// the run ends and written as a Chrome trace-event JSON file, which
// Perfetto (ui.perfetto.dev, "Open trace file") and chrome://tracing
// open offline. A disabled tracer hands out null buffers and every
// Scope on a null buffer is a no-op, so the untraced run pays one
// branch per call site.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        double start_us = 0.0;
        double end_us = 0.0;
        int32_t parent = -1;  ///< index in the same thread's buffer
        int64_t request = -1; ///< request id, -1 when not per request
        bool async = false;   ///< a request lifetime, not a call
    };

    /// One thread's span buffer. Only its owning thread records.
    struct Thread
    {
        uint32_t tid = 0;
        std::string name;
        std::vector<Span> spans;
        std::vector<int32_t> open; ///< stack of unfinished span indices
        const Tracer *tracer = nullptr;

        double nowUs() const { return tracer->nowUs(); }

        /// A request's lifetime [start_us, end_us], drawn as an async
        /// slice keyed by request id (lifetimes overlap, calls nest).
        void
        lifetime(const char *span_name, int64_t request, double start_us,
                 double end_us)
        {
            Span s;
            s.name = span_name;
            s.start_us = start_us;
            s.end_us = end_us;
            s.request = request;
            s.async = true;
            spans.push_back(s);
        }
    };

    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(std::chrono::steady_clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /// A new buffer for the calling thread; nullptr when disabled.
    Thread *
    thread(const std::string &name)
    {
        if (!enabled_)
            return nullptr;
        std::lock_guard<std::mutex> lock(mu_);
        threads_.emplace_back();
        Thread &t = threads_.back();
        t.tid = static_cast<uint32_t>(threads_.size());
        t.name = name;
        t.tracer = this;
        return &t;
    }

    size_t spanCount() const;

    /// Durations (ms) of every non-async span named @p name.
    std::vector<double> durationsMs(const std::string &name) const;

    /// Self time (ms) summed per span name: a span's duration minus
    /// the part its child spans cover. Children of one span run on the
    /// parent's thread and nest, so their durations simply add.
    std::map<std::string, double> selfMs() const;

    /// Writes the Chrome trace-event JSON file; false on I/O failure.
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::mutex mu_;
    std::deque<Thread> threads_; ///< deque: buffers never move
};

/// RAII span. Records nothing when the buffer is null.
class Scope
{
  public:
    Scope(Tracer::Thread *t, const char *name, int64_t request = -1)
        : t_(t)
    {
        if (t_ == nullptr)
            return;
        Tracer::Span s;
        s.name = name;
        s.request = request;
        s.parent = t_->open.empty() ? -1 : t_->open.back();
        s.start_us = t_->nowUs();
        index_ = static_cast<int32_t>(t_->spans.size());
        t_->spans.push_back(s);
        t_->open.push_back(index_);
    }

    ~Scope()
    {
        if (t_ == nullptr)
            return;
        t_->spans[static_cast<size_t>(index_)].end_us = t_->nowUs();
        t_->open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer::Thread *t_;
    int32_t index_ = -1;
};

} // namespace servebench
