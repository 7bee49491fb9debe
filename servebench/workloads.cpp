#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "common/rng.h"
#include "serve/kv_cache.h"

namespace servebench {

using mxplus::EngineOptions;
using mxplus::QuantConfig;
using mxplus::RequestOutcome;
using mxplus::RequestStats;
using mxplus::RouterOptions;
using mxplus::Rng;
using mxplus::ServeRequest;
using mxplus::ServingEngine;
using mxplus::ShardedFrontEnd;
using mxplus::Transformer;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

template <typename T>
void
shuffle(Rng &rng, std::vector<T> &v)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<size_t>(rng.uniformInt(i))]);
}

/// n values spread evenly over [lo, hi], in seeded order: every seed
/// draws the same lengths, so runs differ in order and content but not
/// in total work.
std::vector<size_t>
stratified(Rng &rng, size_t n, size_t lo, size_t hi)
{
    std::vector<size_t> v;
    for (size_t i = 0; i < n; ++i) {
        v.push_back(lo + static_cast<size_t>((static_cast<double>(i) + 0.5) *
                                             static_cast<double>(hi - lo + 1) /
                                             static_cast<double>(n)));
    }
    shuffle(rng, v);
    return v;
}

std::vector<int>
randomTokens(Rng &rng, size_t n, size_t vocab)
{
    std::vector<int> t(n);
    for (int &x : t)
        x = static_cast<int>(rng.uniformInt(vocab));
    return t;
}

ServeRequest
sampledRequest(Rng &rng, std::vector<int> prompt, size_t new_tokens)
{
    ServeRequest r;
    r.prompt = std::move(prompt);
    r.max_new_tokens = new_tokens;
    r.temperature = 0.7;
    r.seed = rng.next();
    return r;
}

/// The process's thread count, from /proc/self/status.
size_t
threadCount()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::strtoul(line.c_str() + 8, nullptr, 10);
    }
    return 0;
}

/// Samples the process's thread count while
/// alive (every 50 ms: OpenMP teams and shard threads persist, and
/// a slower poll steals less CPU from the measured threads). Its own
/// thread is subtracted from the peak.
class ThreadSampler
{
  public:
    ThreadSampler()
        : worker_([this] {
              while (!stop_.load()) {
                  const size_t n = threadCount();
                  if (n > peak_)
                      peak_ = n;
                  std::this_thread::sleep_for(std::chrono::milliseconds(50));
              }
          })
    {
    }

    /// Stops sampling and returns the peak, excluding the sampler.
    size_t
    finish()
    {
        stop_.store(true);
        if (worker_.joinable())
            worker_.join();
        return peak_ > 0 ? peak_ - 1 : 0;
    }

    ~ThreadSampler() { finish(); }

  private:
    std::atomic<bool> stop_{false};
    size_t peak_ = 0;
    std::thread worker_;
};

/// Copies newly generated tokens of every in-flight engine request
/// into its observation, timestamped @p t_ms; retires finished ones.
void
harvest(const ServingEngine &eng, size_t base,
        std::vector<size_t> &inflight, std::vector<Observed> &obs,
        double t_ms, Tracer::Thread *tr, double t0_us)
{
    for (size_t i = 0; i < inflight.size();) {
        const size_t id = inflight[i];
        const RequestStats &st = eng.stats(id);
        Observed &o = obs[base + id];
        while (o.tokens.size() < st.generated.size()) {
            o.tokens.push_back(st.generated[o.tokens.size()]);
            o.token_ms.push_back(t_ms);
        }
        if (!st.finished) {
            ++i;
            continue;
        }
        o.outcome = st.outcome;
        o.queue_wait_ms = st.queue_wait_ms;
        if (tr != nullptr) {
            tr->lifetime("request", static_cast<int64_t>(base + id),
                         t0_us + 1000.0 * o.start_ms, t0_us + 1000.0 * t_ms);
        }
        inflight[i] = inflight.back();
        inflight.pop_back();
    }
}

/// One engine step with its span; counted steps record the decode
/// batch they ran.
void
tracedStep(ServingEngine &eng, Tracer::Thread *tr, RunResult &r, bool count)
{
    const size_t before = eng.engineStats().decode_tokens;
    const Clock::time_point t0 = Clock::now();
    {
        Scope s(tr, "engine.step");
        eng.step();
    }
    const double ms = msSince(t0);
    const size_t batch = eng.engineStats().decode_tokens - before;
    if (!count)
        return;
    ++r.steps;
    r.step_ms += ms;
    if (batch > 0)
        r.batch_hist[batch] += 1;
}

/// chat's open loop on one engine: each request is submitted when its
/// due time passes; each step's new tokens are timestamped.
RunResult
runChat(Deployment &d, const std::vector<Request> &reqs, Tracer &tracer)
{
    ServingEngine &eng = *d.engine;
    Tracer::Thread *tr = tracer.thread("serving-loop");
    RunResult r;
    r.sent.resize(reqs.size());
    std::vector<size_t> inflight;
    std::vector<size_t> backlog;
    size_t next = 0;
    ThreadSampler sampler;
    const double t0_us = tracer.nowUs();
    const Clock::time_point t0 = Clock::now();
    while (true) {
        double now = msSince(t0);
        bool submitted = false;
        while (next < reqs.size() && reqs[next].due_ms <= now) {
            Observed &o = r.sent[next];
            o.start_ms = reqs[next].due_ms;
            backlog.push_back(inflight.size()); // sent, not yet finished
            {
                Scope s(tr, "engine.submit", static_cast<int64_t>(next));
                eng.submit(reqs[next].req);
            }
            r.lateness_ms.push_back(now - reqs[next].due_ms);
            inflight.push_back(next);
            ++next;
            submitted = true;
            now = msSince(t0);
        }
        if (eng.activeRequests() + eng.queuedRequests() > 0) {
            tracedStep(eng, tr, r, true);
            now = msSince(t0);
            harvest(eng, 0, inflight, r.sent, now, tr, t0_us);
        } else if (submitted) {
            harvest(eng, 0, inflight, r.sent, now, tr, t0_us);
        } else if (next < reqs.size()) {
            std::this_thread::sleep_until(
                t0 + std::chrono::microseconds(
                         static_cast<int64_t>(1000.0 * reqs[next].due_ms)));
        } else {
            break;
        }
    }
    r.peak_threads = sampler.finish();
    r.rss_peak_mb = rssPeakMb();
    if (!reqs.empty()) {
        r.window_start_ms = reqs.front().due_ms;
        r.window_end_ms = reqs.back().due_ms;
    }
    eng.runToCompletion(); // idle: only finalizes the engine's stats
    r.stats = eng.engineStats();
    r.stats_requests = reqs.size();
    if (!backlog.empty()) {
        r.backlog_at_last_due = backlog.back();
        const size_t third = std::max<size_t>(1, backlog.size() / 3);
        const double first =
            std::accumulate(backlog.begin(), backlog.begin() + third, 0.0) /
            static_cast<double>(third);
        const double last =
            std::accumulate(backlog.end() - third, backlog.end(), 0.0) /
            static_cast<double>(third);
        r.backlog_growing =
            r.backlog_at_last_due > eng.options().max_batch &&
            last > 2.0 * std::max(first, 1.0);
    }
    return r;
}

/// offline-long: closed batches of kOfflineBatch requests, each
/// submitted at once to a fresh engine (batch 0 to the deployed one).
/// The batches are identical, so the first one's engine counts stand
/// for every batch.
RunResult
runBatches(Deployment &d, const Transformer &model, const QuantConfig &qc,
           const std::vector<Request> &reqs, Tracer &tracer)
{
    Tracer::Thread *tr = tracer.thread("serving-loop");
    RunResult r;
    r.sent.resize(reqs.size());
    ThreadSampler sampler;
    const double t0_us = tracer.nowUs();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<ServingEngine> eng = std::move(d.engine);
    for (size_t base = 0; base < reqs.size(); base += kOfflineBatch) {
        if (eng == nullptr) {
            eng = std::make_unique<ServingEngine>(model, qc,
                                                  servedEngineOptions());
        }
        const size_t end = std::min(reqs.size(), base + kOfflineBatch);
        std::vector<size_t> inflight;
        for (size_t i = base; i < end; ++i) {
            r.sent[i].start_ms = msSince(t0);
            Scope s(tr, "engine.submit", static_cast<int64_t>(i));
            eng->submit(reqs[i].req);
            inflight.push_back(i - base);
        }
        while (eng->activeRequests() + eng->queuedRequests() > 0) {
            tracedStep(*eng, tr, r, base == 0);
            r.window_end_ms = msSince(t0);
            harvest(*eng, base, inflight, r.sent, r.window_end_ms, tr, t0_us);
        }
        if (base == 0) {
            eng->runToCompletion(); // idle: only finalizes the stats
            r.stats = eng->engineStats();
            r.stats_requests = end;
        }
        eng.reset();
    }
    r.peak_threads = sampler.finish();
    r.rss_peak_mb = rssPeakMb();
    return r;
}

RunResult
runTenant(Deployment &d, const std::vector<Request> &reqs, double seconds,
          Tracer &tracer)
{
    ShardedFrontEnd &fleet = *d.fleet;
    RunResult r;
    r.sent.resize(reqs.size());
    const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
    r.clients = std::max<size_t>(1, std::min<size_t>(3, hw - 1));
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    std::vector<double> client_last(r.clients, 0.0);
    ThreadSampler sampler;
    const double t0_us = tracer.nowUs();
    const Clock::time_point t0 = Clock::now();
    auto client = [&](size_t c) {
        Tracer::Thread *tr = tracer.thread("client-" + std::to_string(c));
        while (!stop.load()) {
            const size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                break;
            Observed &o = r.sent[i];
            Scope whole(tr, "client.request", static_cast<int64_t>(i));
            o.start_ms = msSince(t0);
            uint64_t ticket;
            {
                Scope s(tr, "frontend.submit", static_cast<int64_t>(i));
                ticket = fleet.submit(reqs[i].req);
            }
            while (true) {
                int token = 0;
                bool got;
                {
                    Scope s(tr, "frontend.nextToken", static_cast<int64_t>(i));
                    got = fleet.nextToken(ticket, &token);
                }
                if (!got)
                    break;
                o.tokens.push_back(token);
                o.token_ms.push_back(msSince(t0));
            }
            const RequestStats &st = fleet.stats(ticket);
            o.outcome = st.outcome;
            o.queue_wait_ms = st.queue_wait_ms;
            o.engine_token_ms = st.token_ms;
            if (!o.token_ms.empty())
                client_last[c] = o.token_ms.back();
            if (tr != nullptr) {
                tr->lifetime("request", static_cast<int64_t>(i),
                             t0_us + 1000.0 * o.start_ms,
                             t0_us + 1000.0 * msSince(t0));
            }
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < r.clients; ++c)
        threads.emplace_back(client, c);
    std::this_thread::sleep_until(
        t0 + std::chrono::milliseconds(static_cast<int64_t>(1000 * seconds)));
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    r.peak_threads = sampler.finish();
    r.rss_peak_mb = rssPeakMb();
    r.sent.resize(std::min(next.load(), reqs.size()));
    r.window_end_ms = *std::max_element(client_last.begin(), client_last.end());
    fleet.drain();
    r.stats = fleet.engineStats();
    for (size_t s = 0; s < fleet.numShards(); ++s) {
        const mxplus::EngineStats &es = fleet.shardStats(s);
        r.shard_generated.push_back(es.total_generated);
        r.steps += es.decode_batches;
        if (es.decode_batches > 0) {
            r.batch_hist[static_cast<size_t>(
                std::lround(es.mean_batch_occupancy))] += es.decode_batches;
        }
    }
    for (size_t i = 0; i < r.sent.size(); ++i)
        r.head_tokens += reqs[i].head_tokens;
    r.stats_requests = r.sent.size();
    return r;
}

/// Requests that share no prefix with any measured one (a fixed seed
/// apart from every workload seed stream) for warming up.
std::vector<ServeRequest>
warmUpRequests(Workload w)
{
    Rng rng(0x77a2'4d5eull);
    std::vector<ServeRequest> out;
    const size_t n = w == Workload::kChat ? 4 : 2;
    const size_t prompt = w == Workload::kChat ? 96 : 544;
    for (size_t i = 0; i < n; ++i)
        out.push_back(sampledRequest(rng, randomTokens(rng, prompt, 256), 8));
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::kChat, Workload::kOfflineLong,
                       Workload::kTenantPrefix}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::kChat:
        return "chat";
    case Workload::kOfflineLong:
        return "offline-long";
    case Workload::kTenantPrefix:
        return "tenant-prefix";
    }
    return "?";
}

EngineOptions
servedEngineOptions()
{
    EngineOptions o;
    o.max_batch = 16;
    o.prefill_chunk = 128;
    o.kv_budget_tokens = 6144;
    o.over_admission = 1.5;
    o.prefix_cache_tokens = 3584;
    o.compress_frozen_pages = true;
    return o;
}

RouterOptions
servedRouterOptions()
{
    RouterOptions r;
    r.num_shards = 2;
    r.policy = mxplus::RoutePolicy::kPrefixAffinity;
    return r;
}

Slo
sloFor(Workload w)
{
    switch (w) {
    case Workload::kChat:
        return {1000.0, 150.0};
    case Workload::kOfflineLong:
        return {60000.0, 1000.0};
    case Workload::kTenantPrefix:
        return {2000.0, 150.0};
    }
    return {0.0, 0.0};
}

std::vector<Request>
makeRequests(Workload w, uint64_t seed, double seconds)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(w) + 1);
    std::vector<Request> out;
    switch (w) {
    case Workload::kChat: {
        // Poisson arrivals at kChatRps, stratified per second: each
        // one-second block draws the exponential gap distribution's
        // kChatRps quantiles, and prompt and output lengths spread over
        // their ranges, in seeded order. Bursts stay within a block, so
        // every seed offers the same load at second granularity.
        const size_t per_block = static_cast<size_t>(kChatRps);
        const size_t blocks = static_cast<size_t>(std::ceil(seconds));
        double t = 0.0;
        for (size_t b = 0; b < blocks; ++b) {
            std::vector<double> gaps;
            for (size_t i = 0; i < per_block; ++i) {
                gaps.push_back(
                    -std::log(1.0 - (i + 0.5) / static_cast<double>(per_block)) *
                    1000.0 / kChatRps);
            }
            shuffle(rng, gaps);
            const std::vector<size_t> prompts =
                stratified(rng, per_block, 32, 128);
            const std::vector<size_t> outputs =
                stratified(rng, per_block, 16, 48);
            for (size_t i = 0; i < per_block; ++i) {
                t += gaps[i];
                Request r;
                r.due_ms = t;
                r.req = sampledRequest(
                    rng, randomTokens(rng, prompts[i], 256), outputs[i]);
                out.push_back(std::move(r));
            }
        }
        break;
    }
    case Workload::kOfflineLong: {
        // A closed batch with a fixed shape: evenly spread prompt and
        // output lengths in one fixed order, so every seed schedules,
        // defers and preempts alike; the seed draws the contents. The
        // run repeats the batch offlineBatches(seconds) times.
        Rng shape(0x0ff1'1e5eull);
        const size_t n = kOfflineBatch;
        const std::vector<size_t> prompts = stratified(shape, n, 384, 1024);
        const std::vector<size_t> outputs = stratified(shape, n, 128, 256);
        for (size_t i = 0; i < n; ++i) {
            Request r;
            r.req = sampledRequest(rng, randomTokens(rng, prompts[i], 256),
                                   outputs[i]);
            out.push_back(std::move(r));
        }
        const std::vector<Request> batch = out;
        for (size_t b = 1; b < offlineBatches(seconds); ++b)
            out.insert(out.end(), batch.begin(), batch.end());
        break;
    }
    case Workload::kTenantPrefix: {
        // A skewed (Zipf, s = 1) mix over 16 tenant families, each with
        // its own 512-token system prompt. Every block of 64 requests
        // holds each family in proportion to its weight, in seeded
        // order.
        constexpr size_t kFamilies = 16;
        constexpr size_t kBlock = 64;
        // Family f's head is drawn until the affinity router places it
        // on shard f % shards, so the hot families alternate shards on
        // every seed.
        const RouterOptions ro = servedRouterOptions();
        const size_t page_tokens = mxplus::KvCache::pageTokensFor(
            QuantConfig::fromFormat(kServedFormat).attention.get());
        std::vector<std::vector<int>> heads;
        std::vector<double> weight;
        double total = 0.0;
        for (size_t f = 0; f < kFamilies; ++f) {
            std::vector<int> head;
            do {
                head = randomTokens(rng, kTenantHeadTokens, 256);
            } while (mxplus::affinityShard(head, page_tokens,
                                           ro.affinity_pages,
                                           ro.num_shards) !=
                     f % ro.num_shards);
            heads.push_back(std::move(head));
            weight.push_back(1.0 / static_cast<double>(f + 1));
            total += weight.back();
        }
        std::vector<size_t> block; // largest-remainder apportionment
        std::vector<std::pair<double, size_t>> rest;
        for (size_t f = 0; f < kFamilies; ++f) {
            const double share = kBlock * weight[f] / total;
            block.insert(block.end(), static_cast<size_t>(share), f);
            rest.emplace_back(share - std::floor(share), f);
        }
        std::sort(rest.rbegin(), rest.rend());
        for (size_t i = 0; block.size() < kBlock; ++i)
            block.push_back(rest[i].second);
        for (size_t b = 0; b < 200; ++b) {
            shuffle(rng, block);
            const std::vector<size_t> tails = stratified(rng, kBlock, 16, 64);
            const std::vector<size_t> outputs =
                stratified(rng, kBlock, 16, 32);
            for (size_t i = 0; i < kBlock; ++i) {
                std::vector<int> prompt = heads[block[i]];
                const std::vector<int> tail =
                    randomTokens(rng, tails[i], 256);
                prompt.insert(prompt.end(), tail.begin(), tail.end());
                Request r;
                r.head_tokens = kTenantHeadTokens;
                r.req = sampledRequest(rng, std::move(prompt), outputs[i]);
                out.push_back(std::move(r));
            }
        }
        break;
    }
    }
    return out;
}

Deployment
deploy(Workload w, const Transformer &model, const QuantConfig &qc)
{
    Deployment d;
    const EngineOptions opts = servedEngineOptions();
    if (w == Workload::kTenantPrefix) {
        {
            ShardedFrontEnd warm(model, qc, opts, servedRouterOptions());
            std::vector<uint64_t> tickets;
            for (ServeRequest &req : warmUpRequests(w))
                tickets.push_back(warm.submit(std::move(req)));
            for (uint64_t t : tickets)
                warm.wait(t);
            warm.drain();
        }
        d.fleet = std::make_unique<ShardedFrontEnd>(model, qc, opts,
                                                    servedRouterOptions());
        return d;
    }
    {
        ServingEngine warm(model, qc, opts);
        for (ServeRequest &req : warmUpRequests(w))
            warm.submit(std::move(req));
        warm.runToCompletion();
    }
    d.engine = std::make_unique<ServingEngine>(model, qc, opts);
    return d;
}

RunResult
run(Workload w, Deployment &d, const Transformer &model,
    const QuantConfig &qc, const std::vector<Request> &reqs,
    double seconds, Tracer &tracer)
{
    RunResult r;
    switch (w) {
    case Workload::kChat:
        r = runChat(d, reqs, tracer);
        break;
    case Workload::kOfflineLong:
        r = runBatches(d, model, qc, reqs, tracer);
        break;
    case Workload::kTenantPrefix:
        r = runTenant(d, reqs, seconds, tracer);
        break;
    }
    for (size_t i = 0; i < r.stats_requests; ++i)
        r.prompt_tokens += reqs[i].req.prompt.size();
    return r;
}

double
rssPeakMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace servebench
