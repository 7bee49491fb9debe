// The benchmark's three workloads, their seeded request generators and
// the loops that drive the serving stack through its public API.
//
//  chat          open loop, one thread: ServingEngine::submit/step/stats
//  offline-long  closed batches: ServingEngine::submit/step/stats
//  tenant-prefix closed loop of client threads: ShardedFrontEnd through
//                the ServingClient API (submit, nextToken, stats)
//
// Every loop timestamps tokens as the client sees them, on the wall
// clock, relative to the start of the timed phase.

#pragma once

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/transformer.h"
#include "serve/router.h"
#include "serve/serving_engine.h"
#include "trace.h"

namespace servebench {

enum class Workload
{
    kChat,
    kOfflineLong,
    kTenantPrefix,
};

/// Parses a workload name; false when unknown.
bool parseWorkload(const std::string &name, Workload *out);
const char *workloadName(Workload w);

/// The one deployment profile every workload is served with.
mxplus::EngineOptions servedEngineOptions();
mxplus::RouterOptions servedRouterOptions();
/// The paper's format, served for every workload.
constexpr const char *kServedFormat = "MXFP4+";

/// Latency limits a request must meet to count towards slo_attainment.
struct Slo
{
    double ttft_ms;
    double mean_gap_ms;
};
Slo sloFor(Workload w);

/// Open-loop arrival rate of chat (requests per second).
constexpr double kChatRps = 8.0;
/// Requests in one offline-long batch; a batch takes about 15 s on a
/// 4-core x86 box.
constexpr size_t kOfflineBatch = 12;
/// Identical offline-long batches per run: one per 15 s of --seconds.
inline size_t
offlineBatches(double seconds)
{
    return std::max<size_t>(1, static_cast<size_t>(seconds / 15.0 + 0.5));
}
/// Shared system-prompt length of every tenant family.
constexpr size_t kTenantHeadTokens = 512;

/// One generated request.
struct Request
{
    mxplus::ServeRequest req;
    double due_ms = 0.0;      ///< chat: seeded Poisson due time
    size_t head_tokens = 0;   ///< tenant: shareable system-prompt tokens
};

/// Seeded request streams. Chat arrivals cover [0, seconds); offline
/// holds offlineBatches(seconds) copies of one batch; the tenant stream
/// is longer than any run can consume.
std::vector<Request> makeRequests(Workload w, uint64_t seed,
                                  double seconds);

/// What the client saw of one sent request; RunResult::sent[i] is
/// request i of the generated stream.
struct Observed
{
    double start_ms = 0.0;  ///< due time (chat) or submit call
    std::vector<double> token_ms; ///< arrival time of each token
    std::vector<int> tokens;
    mxplus::RequestOutcome outcome = mxplus::RequestOutcome::kPending;
    double queue_wait_ms = 0.0;
    std::vector<double> engine_token_ms; ///< tenant: decode-step times
};

/// Everything one timed run produced.
struct RunResult
{
    std::vector<Observed> sent;
    /// The throughput window: first submit (chat: first due time) to
    /// the last token (chat: the last due time, so the drain after the
    /// last arrival, whose length depends on that one request, is out).
    double window_start_ms = 0.0;
    double window_end_ms = 0.0;
    size_t prompt_tokens = 0;  ///< prompt tokens sent
    size_t head_tokens = 0;    ///< shareable head tokens sent (tenant)
    mxplus::EngineStats stats; ///< the engine's, or the merged fleet's
    size_t steps = 0;          ///< step() calls (fleet: decode batches)
    double step_ms = 0.0;      ///< wall time inside those step() calls
    /// The leading requests that stats, steps and batch_hist cover:
    /// every sent one, except on offline-long, its first batch.
    size_t stats_requests = 0;
    std::map<size_t, size_t> batch_hist; ///< decode batch -> steps
    double rss_peak_mb = 0.0;
    size_t peak_threads = 0;
    // chat open-loop validity
    std::vector<double> lateness_ms;
    size_t backlog_at_last_due = 0;
    bool backlog_growing = false;
    // tenant-prefix fleet
    size_t clients = 0;
    std::vector<size_t> shard_generated;
};

/// The live serving object a workload runs on (an engine for chat and
/// offline-long, a fleet for tenant-prefix).
struct Deployment
{
    std::unique_ptr<mxplus::ServingEngine> engine;
    std::unique_ptr<mxplus::ShardedFrontEnd> fleet;
};

/// Builds the deployment and warms it (and the process) up with a few
/// requests that share nothing with the measured ones.
Deployment deploy(Workload w, const mxplus::Transformer &model,
                  const mxplus::QuantConfig &qc);

/// Runs the timed phase. @p tracer may be disabled.
RunResult run(Workload w, Deployment &d, const mxplus::Transformer &model,
              const mxplus::QuantConfig &qc,
              const std::vector<Request> &reqs, double seconds,
              Tracer &tracer);

/// Peak resident set (VmHWM) of this process in MB.
double rssPeakMb();

} // namespace servebench
