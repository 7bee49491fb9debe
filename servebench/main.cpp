// servebench: the repository's serving benchmark.
//
//   servebench --workload chat|offline-long|tenant-prefix --seed N
//              --seconds S --trace 0|1 [--trace-file PATH]
//
// Serves the simLlama31_70b model in MXFP4+ on the wall clock through
// the public serving API and prints, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the program runs the
// workload untraced, then traced (each for half of --seconds), then
// replays each layer, and prints the per-layer metrics. The line before the result holds the run's
// details: effective configuration, request accounting, tail
// percentiles with their sample counts, open-loop validity, and (traced
// runs) span self times and the tracing overhead.
//
// See servebench/README.md for the workloads and metric definitions.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "codec/page_codec.h"
#include "common/rng.h"
#include "kernels/kernel_dispatch.h"
#include "model/config.h"
#include "model/eval.h"
#include "model/quant_config.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char **environ;

namespace servebench {
namespace {

using mxplus::EngineOptions;
using mxplus::QuantConfig;
using mxplus::RequestOutcome;
using mxplus::RouterOptions;
using mxplus::ServingEngine;
using mxplus::Transformer;

struct Args
{
    Workload workload = Workload::kChat;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_file;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload "
                 "chat|offline-long|tenant-prefix --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (k == "--workload") {
            if (!parseWorkload(v, &a.workload))
                usage(("unknown workload " + v).c_str());
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-file") {
            a.trace_file = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end != nullptr && (*end != '\0' || errno != 0))
            usage(("bad number for " + k).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/// A flat JSON object built in insertion order.
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        else
            std::snprintf(buf, sizeof(buf), "null");
        return raw(k, buf);
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(k, q + "\"");
    }
    Json &flag(const std::string &k, bool v) { return raw(k, v ? "true" : "false"); }
    Json &obj(const std::string &k, const Json &v) { return raw(k, v.text()); }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

struct Metric
{
    double value;
    const char *unit;
};
using Metrics = std::map<std::string, Metric>;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
completedInFull(const Observed &o, const Request &req)
{
    return o.outcome == RequestOutcome::kCompleted &&
        o.tokens.size() == req.req.max_new_tokens;
}

/// Client-observed latency samples of one run.
struct Latencies
{
    std::vector<double> ttft;
    std::vector<double> itl;
    size_t slo_met = 0;
    size_t completed = 0;
    size_t window_tokens = 0;    ///< tokens seen inside the window
    size_t window_completed = 0; ///< requests finished inside it
};

Latencies
latencies(Workload w, const RunResult &r, const std::vector<Request> &reqs)
{
    Latencies l;
    const Slo slo = sloFor(w);
    for (size_t i = 0; i < r.sent.size(); ++i) {
        const Observed &o = r.sent[i];
        if (o.tokens.empty())
            continue;
        const double ttft = o.token_ms.front() - o.start_ms;
        l.ttft.push_back(ttft);
        for (size_t k = 1; k < o.token_ms.size(); ++k)
            l.itl.push_back(o.token_ms[k] - o.token_ms[k - 1]);
        const double mean_gap = o.token_ms.size() > 1
            ? (o.token_ms.back() - o.token_ms.front()) /
                static_cast<double>(o.token_ms.size() - 1)
            : 0.0;
        for (double t : o.token_ms)
            l.window_tokens += t <= r.window_end_ms ? 1 : 0;
        if (!completedInFull(o, reqs[i]))
            continue;
        ++l.completed;
        l.window_completed += o.token_ms.back() <= r.window_end_ms ? 1 : 0;
        if (ttft <= slo.ttft_ms && mean_gap <= slo.mean_gap_ms)
            ++l.slo_met;
    }
    return l;
}

/// The timed end-to-end metrics (all but quality and set-up).
Metrics
endToEnd(Workload w, const RunResult &r, const std::vector<Request> &reqs,
         Json *tails)
{
    const Latencies l = latencies(w, r, reqs);
    const Tail ttft = tailPercentile(l.ttft);
    const Tail itl = tailPercentile(l.itl);
    if (tails != nullptr) {
        tails->obj("ttft_tail_ms", Json()
                                       .num("percentile", ttft.percentile)
                                       .num("samples", ttft.samples)
                                       .num("beyond", ttft.beyond));
        tails->obj("itl_tail_ms", Json()
                                      .num("percentile", itl.percentile)
                                      .num("samples", itl.samples)
                                      .num("beyond", itl.beyond));
    }
    const double window_s = (r.window_end_ms - r.window_start_ms) / 1000.0;
    Metrics m;
    m["ttft_p50_ms"] = {median(l.ttft), "ms"};
    m["ttft_tail_ms"] = {ttft.value, "ms"};
    m["itl_p50_ms"] = {median(l.itl), "ms"};
    m["itl_tail_ms"] = {itl.value, "ms"};
    m["slo_attainment"] = {
        r.sent.empty() ? 0.0
                       : static_cast<double>(l.slo_met) /
                static_cast<double>(r.sent.size()),
        "fraction"};
    m["throughput_tok_s"] = {
        window_s > 0.0 ? static_cast<double>(l.window_tokens) / window_s
                       : 0.0,
        "tok/s"};
    m["requests_per_s"] = {
        window_s > 0.0 ? static_cast<double>(l.window_completed) / window_s
                       : 0.0,
        "req/s"};
    m["rss_peak_mb"] = {r.rss_peak_mb, "MB"};
    return m;
}

/// MXFP4+ perplexity over BF16 perplexity on a fixed teacher corpus.
double
qualityRatio(const Transformer &model)
{
    const mxplus::Dataset data =
        mxplus::makeTeacherDataset(model, "wiki", 4, 192, 1.0, 20250);
    return mxplus::perplexity(model, data,
                              QuantConfig::fromFormat(kServedFormat)) /
        mxplus::perplexity(model, data, QuantConfig::bf16Baseline());
}

/// Requests of @p r that did not end kCompleted with their full length.
size_t
incomplete(const RunResult &r, const std::vector<Request> &reqs)
{
    size_t n = 0;
    for (size_t i = 0; i < r.sent.size(); ++i)
        n += completedInFull(r.sent[i], reqs[i]) ? 0 : 1;
    return n;
}

struct CheckResult
{
    size_t sampled = 0;
    size_t mismatched = 0;
    size_t failed = 0; ///< incomplete or mismatched requests
};

/// Output check: every sent request must end kCompleted with its full
/// length, and a seeded sample of streams (4 requests; 1 of the long
/// offline ones) must equal the same requests served alone by a plain
/// engine: batch 1, no prefix cache, no compression, no KV budget.
CheckResult
checkOutputs(Workload w, const Transformer &model, const QuantConfig &qc,
             const std::vector<Request> &reqs, const RunResult &r,
             uint64_t seed)
{
    std::vector<size_t> pick;
    mxplus::Rng rng(seed ^ 0x5a3c'91e7ull);
    const size_t want =
        std::min<size_t>(w == Workload::kOfflineLong ? 1 : 4, r.sent.size());
    while (pick.size() < want) {
        const size_t i = static_cast<size_t>(rng.uniformInt(r.sent.size()));
        if (std::find(pick.begin(), pick.end(), i) == pick.end())
            pick.push_back(i);
    }
    // The reference engine is not timed; it runs with one OpenMP thread
    // because streams are bit-identical at any thread count, which this
    // comparison checks as well.
#ifdef _OPENMP
    const int omp_threads = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    EngineOptions ref;
    ref.max_batch = 1;
    ServingEngine eng(model, qc, ref);
    for (size_t i : pick)
        eng.submit(reqs[i].req);
    eng.runToCompletion();
#ifdef _OPENMP
    omp_set_num_threads(omp_threads);
#endif
    CheckResult c;
    c.sampled = pick.size();
    c.failed = incomplete(r, reqs);
    for (size_t j = 0; j < pick.size(); ++j) {
        if (eng.stats(j).generated == r.sent[pick[j]].tokens)
            continue;
        ++c.mismatched;
        c.failed += completedInFull(r.sent[pick[j]], reqs[pick[j]]) ? 1 : 0;
    }
    return c;
}

Json
effectiveConfig(const Transformer &model, const RunResult &r)
{
    const EngineOptions e = servedEngineOptions();
    const RouterOptions ro = servedRouterOptions();
    Json eng;
    eng.num("max_batch", e.max_batch)
        .num("kv_budget_tokens", e.kv_budget_tokens)
        .num("prefill_chunk", e.prefill_chunk)
        .num("page_tokens", e.page_tokens)
        .num("prefix_cache_tokens", e.prefix_cache_tokens)
        .flag("sjf_admission", e.sjf_admission)
        .num("over_admission", e.over_admission)
        .num("aging_rate", e.aging_rate)
        .num("deadline_ms", e.deadline_ms)
        .num("ttft_deadline_ms", e.ttft_deadline_ms)
        .num("queue_cap", e.queue_cap)
        .num("max_queue_wait_ms", e.max_queue_wait_ms)
        .flag("checksum_pages", e.checksum_pages)
        .num("step_time_ms", e.step_time_ms)
        .num("num_threads", e.num_threads)
        .flag("compress_frozen_pages", e.compress_frozen_pages)
        .str("page_codec", e.page_codec);
    Json router;
    router.num("num_shards", ro.num_shards)
        .num("ring_capacity", ro.ring_capacity)
        .num("spill_threshold", ro.spill_threshold)
        .num("affinity_pages", ro.affinity_pages)
        .str("policy", ro.policy == mxplus::RoutePolicy::kPrefixAffinity
                 ? "prefix-affinity"
                 : "round-robin")
        .num("heartbeat_timeout_ms", ro.heartbeat_timeout_ms)
        .num("submit_timeout_ms", ro.submit_timeout_ms);
    Json env;
    for (char **p = environ; *p != nullptr; ++p) {
        const std::string kv = *p;
        if (kv.rfind("OMP_", 0) == 0 || kv.rfind("MXPLUS_", 0) == 0) {
            const size_t eq = kv.find('=');
            env.str(kv.substr(0, eq),
                    eq == std::string::npos ? "" : kv.substr(eq + 1));
        }
    }
    const mxplus::PageCodec *codec = mxplus::resolvePageCodec(e.page_codec);
    Json c;
    c.str("model", model.config().name)
        .str("format", kServedFormat)
        .obj("engine_options", eng)
        .obj("router_options", router)
        .str("kernel_backend",
             mxplus::kernelBackendName(mxplus::KernelDispatch::active()))
        .flag("simd_uses_avx2", mxplus::KernelDispatch::simdUsesAvx2())
        .str("page_codec_resolved", codec != nullptr ? codec->name() : "none")
        .obj("env", env)
        .num("nproc", std::thread::hardware_concurrency())
        .num("peak_threads", r.peak_threads);
    if (r.clients > 0)
        c.num("clients", r.clients);
    return c;
}

/// Per-layer metrics of the traced run, before the replay adds its own.
std::map<std::string, double>
perLayer(Workload w, const RunResult &r, const Tracer &tracer)
{
    const mxplus::EngineStats &s = r.stats;
    std::map<std::string, double> m;
    const bool fleet = w == Workload::kTenantPrefix;

    // engine: step spans on the single-engine loops; on the fleet the
    // shard threads step, so the decode-step times the engine records
    // per token stand in, and steps counts decode batches.
    std::vector<double> step_ms = tracer.durationsMs("engine.step");
    double step_sum = r.step_ms;
    if (fleet) {
        step_ms.clear();
        for (const Observed &o : r.sent)
            step_ms.insert(step_ms.end(), o.engine_token_ms.begin(),
                           o.engine_token_ms.end());
        step_sum = (r.window_end_ms - r.window_start_ms) *
            static_cast<double>(r.shard_generated.size());
    }
    m["engine.step_ms_p50"] = median(step_ms);
    m["engine.step_ms_tail"] = tailPercentile(step_ms).value;
    m["engine.steps"] = static_cast<double>(r.steps);
    m["engine.decode_batch_mean"] = s.mean_batch_occupancy;
    m["engine.decode_share"] = step_sum > 0.0 ? s.decode_ms / step_sum : 0.0;
    m["engine.prefill_chunks"] = static_cast<double>(s.prefill_chunks);
    std::vector<double> submit_us;
    for (double ms : tracer.durationsMs("engine.submit"))
        submit_us.push_back(1000.0 * ms);
    m["engine.submit_us_p99"] = percentile(submit_us, 99.0);

    std::vector<double> waits;
    size_t served = r.prompt_tokens;
    for (size_t i = 0; i < r.sent.size(); ++i) {
        waits.push_back(r.sent[i].queue_wait_ms);
        served += i < r.stats_requests ? r.sent[i].tokens.size() : 0;
    }
    m["scheduler.queue_wait_ms_p50"] = percentile(waits, 50.0);
    m["scheduler.queue_wait_ms_p99"] = percentile(waits, 99.0);
    m["scheduler.deferred_steps"] =
        static_cast<double>(s.admission_deferred_steps);
    m["scheduler.preemptions"] = static_cast<double>(s.preemptions);
    m["scheduler.recompute_ratio"] = served > 0
        ? static_cast<double>(s.preempted_recompute_tokens) /
            static_cast<double>(served)
        : 0.0;

    m["kv.bytes_peak"] = static_cast<double>(s.kv_bytes_peak);
    m["kv.pages_peak"] = static_cast<double>(s.kv_pages_peak);
    m["kv.reserved_over_used"] = s.kv_bytes_peak > 0
        ? static_cast<double>(s.kv_bytes_reserved_peak) /
            static_cast<double>(s.kv_bytes_peak)
        : 0.0;
    m["kv.checksum_failures"] = static_cast<double>(s.checksum_failures);

    m["prefix.hit_ratio"] = r.prompt_tokens > 0
        ? static_cast<double>(s.prefix_hit_tokens) /
            static_cast<double>(r.prompt_tokens)
        : 0.0;
    m["prefix.inserted_tokens"] =
        static_cast<double>(s.prefix_inserted_tokens);
    m["prefix.evicted_pages"] = static_cast<double>(s.prefix_evicted_pages);

    m["codec.compressed_ratio"] = s.compressed_ratio;
    m["codec.decode_calls"] = static_cast<double>(s.codec_decode_calls);

    // Front end and router exist only on tenant-prefix; elsewhere 0.
    std::vector<double> fe_us;
    for (double ms : tracer.durationsMs("frontend.submit"))
        fe_us.push_back(1000.0 * ms);
    m["frontend.submit_us_p50"] = percentile(fe_us, 50.0);
    m["frontend.submit_us_p99"] = percentile(fe_us, 99.0);
    double gen_max = 0.0;
    double gen_sum = 0.0;
    for (size_t g : r.shard_generated) {
        gen_max = std::max(gen_max, static_cast<double>(g));
        gen_sum += static_cast<double>(g);
    }
    m["router.load_imbalance"] = gen_sum > 0.0
        ? gen_max / (gen_sum / static_cast<double>(r.shard_generated.size()))
        : 0.0;
    m["router.hit_ratio"] = fleet && r.head_tokens > 0
        ? static_cast<double>(s.prefix_hit_tokens) /
            static_cast<double>(r.head_tokens)
        : 0.0;
    return m;
}

const std::map<std::string, const char *> &
perLayerUnits()
{
    static const std::map<std::string, const char *> units = {
        {"kernels.matvec_batch_gflops", "GFLOP/s"},
        {"kernels.gemm_nt_gflops", "GFLOP/s"},
        {"kernels.quantize_rows_gbps", "GB/s"},
        {"mx.weight_quantize_ms", "ms"},
        {"model.decode_step_ms.b1", "ms"},
        {"model.decode_step_ms.b4", "ms"},
        {"model.decode_step_ms.b16_ctx1k", "ms"},
        {"model.prefill_ms_per_tok", "ms"},
        {"model.weight_quant_share", "fraction"},
        {"engine.step_ms_p50", "ms"},
        {"engine.step_ms_tail", "ms"},
        {"engine.steps", "count"},
        {"engine.decode_batch_mean", "requests"},
        {"engine.decode_share", "fraction"},
        {"engine.prefill_chunks", "count"},
        {"engine.submit_us_p99", "us"},
        {"scheduler.queue_wait_ms_p50", "ms"},
        {"scheduler.queue_wait_ms_p99", "ms"},
        {"scheduler.deferred_steps", "count"},
        {"scheduler.preemptions", "count"},
        {"scheduler.recompute_ratio", "fraction"},
        {"kv.bytes_peak", "bytes"},
        {"kv.pages_peak", "count"},
        {"kv.reserved_over_used", "ratio"},
        {"kv.checksum_failures", "count"},
        {"prefix.hit_ratio", "fraction"},
        {"prefix.inserted_tokens", "count"},
        {"prefix.evicted_pages", "count"},
        {"codec.encode_gbps", "GB/s"},
        {"codec.decode_gbps", "GB/s"},
        {"codec.compressed_ratio", "ratio"},
        {"codec.decode_calls", "count"},
        {"frontend.submit_us_p50", "us"},
        {"frontend.submit_us_p99", "us"},
        {"router.load_imbalance", "ratio"},
        {"router.hit_ratio", "fraction"},
    };
    return units;
}

Json
metricsJson(const Metrics &m)
{
    Json j;
    for (const auto &[name, metric] : m)
        j.obj(name, Json().num("value", metric.value).str("unit", metric.unit));
    return j;
}

int
runMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = args.workload;
    const QuantConfig qc = QuantConfig::fromFormat(kServedFormat);
    const EngineOptions opts = servedEngineOptions();

    // Set-up, five times: model build, engine or fleet construction
    // and warm-up. The median is reported; the last one serves.
    std::unique_ptr<Transformer> model;
    Deployment dep;
    std::vector<double> setup_s;
    for (int i = 0; i < 5; ++i) {
        dep = Deployment();
        model.reset();
        const double t0 = nowS();
        model = std::make_unique<Transformer>(mxplus::simLlama31_70b());
        dep = deploy(w, *model, qc);
        setup_s.push_back(nowS() - t0);
    }

    // A traced run splits --seconds into an untraced and a traced pass
    // of equal length, so the traced run costs no more time than an
    // untraced one and the overhead compares like with like.
    const double pass_s = args.trace ? args.seconds / 2.0 : args.seconds;
    const std::vector<Request> reqs = makeRequests(w, args.seed, pass_s);
    Tracer untraced(false);
    RunResult r = run(w, dep, *model, qc, reqs, pass_s, untraced);
    Json tails;
    Metrics e2e = endToEnd(w, r, reqs, &tails);

    Json details;
    details.str("workload", workloadName(w))
        .num("seed", static_cast<double>(args.seed))
        .num("seconds", args.seconds)
        .flag("trace", args.trace);

    size_t attempted = r.sent.size();
    size_t failed = 0;
    bool correct = true;
    Metrics out;
    if (!args.trace) {
        e2e["quality_ppl_ratio"] = {qualityRatio(*model), "ratio"};
        e2e["setup_s"] = {median(setup_s), "s"};
        out = e2e;
    } else {
        // The traced run: same workload on a fresh deployment, spans on;
        // its streams are the ones checked below.
        failed += incomplete(r, reqs);
        Tracer tracer(true);
        dep = Deployment();
        dep = deploy(w, *model, qc);
        RunResult traced = run(w, dep, *model, qc, reqs, pass_s, tracer);
        Json overhead;
        for (const auto &[name, metric] : endToEnd(w, traced, reqs, nullptr))
            overhead.num(name, metric.value - e2e[name].value);

        std::map<std::string, double> layer = perLayer(w, traced, tracer);
        for (const auto &[name, v] : replayLayers(*model, qc, opts,
                                                  traced.batch_hist,
                                                  tracer.thread("replay")))
            layer[name] = v;
        correct = layer["codec.replay_exact"] == 1.0;
        for (const auto &[name, unit] : perLayerUnits())
            out[name] = {layer.at(name), unit};

        Json self;
        for (const auto &[name, ms] : tracer.selfMs())
            self.num(name, ms);
        Json hist;
        for (const auto &[b, n] : traced.batch_hist)
            hist.num(std::to_string(b), n);
        details.obj("trace_overhead", overhead)
            .obj("span_self_ms", self)
            .num("spans", tracer.spanCount())
            .obj("decode_batch_hist", hist);
        if (!args.trace_file.empty()) {
            if (!tracer.write(args.trace_file)) {
                std::fprintf(stderr, "servebench: cannot write %s\n",
                             args.trace_file.c_str());
                return 1;
            }
            details.str("trace_file", args.trace_file);
        }
        attempted += traced.sent.size();
        r = std::move(traced);
    }

    const CheckResult c = checkOutputs(w, *model, qc, reqs, r, args.seed);
    failed += c.failed;
    correct = correct && failed == 0;
    details.obj("requests", Json()
                                .num("sent", attempted)
                                .num("succeeded", attempted - failed)
                                .num("failed", failed)
                                .num("checked_against_reference", c.sampled)
                                .num("stream_mismatches", c.mismatched));

    Json setups;
    for (size_t i = 0; i < setup_s.size(); ++i)
        setups.num(std::to_string(i), setup_s[i]);
    details.obj("config", effectiveConfig(*model, r))
        .obj("tails", tails)
        .obj("setup_runs_s", setups);
    if (w == Workload::kChat) {
        details.obj("open_loop",
                    Json()
                        .num("rate_rps", kChatRps)
                        .num("lateness_ms_p50", median(r.lateness_ms))
                        .num("lateness_ms_max", percentile(r.lateness_ms, 100))
                        .num("backlog_at_last_due", r.backlog_at_last_due)
                        .flag("backlog_growing", r.backlog_growing));
    }
    const Slo slo = sloFor(w);
    details.obj("slo", Json().num("ttft_ms", slo.ttft_ms).num("mean_gap_ms",
                                                              slo.mean_gap_ms));
    std::printf("%s\n", Json().obj("details", details).text().c_str());
    std::printf("%s\n", Json()
                            .flag("correct", correct)
                            .num("attempted", attempted)
                            .num("failed", failed)
                            .obj("metrics", metricsJson(out))
                            .text()
                            .c_str());
    return 0;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    return servebench::runMain(argc, argv);
}
