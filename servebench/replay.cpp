#include "replay.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "codec/page_codec.h"
#include "common/rng.h"
#include "kernels/kernel_dispatch.h"
#include "serve/kv_cache.h"
#include "serve/kv_page_pool.h"
#include "stats.h"

namespace servebench {

using mxplus::KernelDispatch;
using mxplus::KvCache;
using mxplus::KvPagePool;
using mxplus::Matrix;
using mxplus::QuantConfig;
using mxplus::Rng;
using mxplus::Transformer;

namespace {

template <typename Fn>
double
timeMs(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Median wall time (ms) of @p reps calls.
template <typename Fn>
double
medianMs(size_t reps, Fn &&fn)
{
    std::vector<double> t;
    for (size_t i = 0; i < reps; ++i)
        t.push_back(timeMs(fn));
    return median(t);
}

Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (size_t i = 0; i < rows * cols; ++i)
        m.data()[i] = static_cast<float>(rng.gaussian());
    return m;
}

std::vector<int>
promptTokens(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> t(n);
    for (int &x : t)
        x = static_cast<int>(rng.uniformInt(256));
    return t;
}

/// The linears one decode step runs per layer, plus the head, taken
/// from layer 0 (every layer has the same shapes).
std::vector<const Matrix *>
stepLinears(const Transformer &model)
{
    std::vector<const Matrix *> out;
    for (const std::string &name : model.linearNames()) {
        if (name.rfind("L0.", 0) == 0 || name == "head")
            out.push_back(&model.linearWeight(name));
    }
    return out;
}

void
replayKernels(const Transformer &model,
              const std::map<size_t, size_t> &batch_hist, size_t rows,
              Tracer::Thread *tr, std::map<std::string, double> &m)
{
    const std::vector<const Matrix *> ws = stepLinears(model);
    size_t max_k = 0;
    size_t max_n = 0;
    for (const Matrix *w : ws) {
        max_k = std::max(max_k, w->cols());
        max_n = std::max(max_n, w->rows());
    }

    // Batched decode matvec, weighted by how often each batch size ran.
    {
        Scope s(tr, "replay.kernels.matvecBatch");
        size_t max_b = 1;
        size_t total_steps = 0;
        for (const auto &[b, n] : batch_hist) {
            max_b = std::max(max_b, b);
            total_steps += n;
        }
        const Matrix x = randomMatrix(max_b, max_k, 11);
        Matrix y(max_b, max_n);
        double flops = 0.0;
        double ms = 0.0;
        for (const auto &[b, n] : batch_hist) {
            const size_t reps = std::max<size_t>(
                1, 400 * n / std::max<size_t>(1, total_steps));
            ms += timeMs([&] {
                for (size_t r = 0; r < reps; ++r) {
                    for (const Matrix *w : ws) {
                        KernelDispatch::matvecBatch(*w, x.data(), max_k,
                                                    y.data(), max_n, b);
                    }
                }
            });
            for (const Matrix *w : ws) {
                flops += 2.0 * static_cast<double>(reps * b * w->rows() *
                                                   w->cols());
            }
        }
        m["kernels.matvec_batch_gflops"] = ms > 0.0 ? flops / ms / 1e6 : 0.0;
    }

    // GEMM at the prefill-chunk shape.
    {
        Scope s(tr, "replay.kernels.gemmNT");
        std::vector<Matrix> as;
        std::vector<Matrix> cs;
        double flops_per_pass = 0.0;
        for (const Matrix *w : ws) {
            as.push_back(randomMatrix(rows, w->cols(), 12));
            cs.emplace_back(rows, w->rows());
            flops_per_pass +=
                2.0 * static_cast<double>(rows * w->rows() * w->cols());
        }
        const double ms = medianMs(30, [&] {
            for (size_t i = 0; i < ws.size(); ++i)
                KernelDispatch::gemmNT(as[i], *ws[i], cs[i]);
        });
        m["kernels.gemm_nt_gflops"] = flops_per_pass / ms / 1e6;
    }

    // Fused MXFP4+ block quantizer over every weight of one step.
    {
        Scope s(tr, "replay.kernels.quantizeRows");
        const mxplus::MxQuantizer q(mxplus::ElementFormat::E2M1,
                                    mxplus::MxMode::Plus);
        std::vector<Matrix> outs;
        double bytes = 0.0;
        for (const Matrix *w : ws) {
            outs.emplace_back(w->rows(), w->cols());
            bytes += 2.0 * sizeof(float) *
                static_cast<double>(w->rows() * w->cols());
        }
        const double ms = medianMs(20, [&] {
            for (size_t i = 0; i < ws.size(); ++i) {
                KernelDispatch::quantizeRows(q, ws[i]->data(),
                                             outs[i].data(), ws[i]->rows(),
                                             ws[i]->cols());
            }
        });
        m["kernels.quantize_rows_gbps"] = bytes / ms / 1e6;
    }
}

/// One pass of the served weight quantizer over every linear and the
/// head: the work each decode step redoes today.
void
replayWeightQuantizer(const Transformer &model, const QuantConfig &qc,
                      Tracer::Thread *tr, std::map<std::string, double> &m)
{
    Scope s(tr, "replay.mx.weightQuantize");
    std::vector<const Matrix *> ws;
    std::vector<Matrix> outs;
    for (const std::string &name : model.linearNames()) {
        ws.push_back(&model.linearWeight(name));
        outs.emplace_back(ws.back()->rows(), ws.back()->cols());
    }
    m["mx.weight_quantize_ms"] = medianMs(7, [&] {
        for (size_t i = 0; i < ws.size(); ++i)
            qc.weight->quantize(*ws[i], outs[i]);
    });
}

/// Decode steps over @p caches; median step time in ms.
double
decodeStepMs(const Transformer &model, const QuantConfig &qc,
             std::vector<KvCache *> caches, size_t reps)
{
    const std::vector<int> tokens(caches.size(), 7);
    return medianMs(reps,
                    [&] { model.decodeStepBatch(tokens, caches, qc); });
}

void
replayModelAndCodec(const Transformer &model, const QuantConfig &qc,
                    const mxplus::EngineOptions &opts, Tracer::Thread *tr,
                    std::map<std::string, double> &m)
{
    const mxplus::ModelConfig &cfg = model.config();
    const size_t pt = KvCache::pageTokensFor(qc.attention.get());
    auto pool = std::make_shared<KvPagePool>(
        pt, KvCache::floatsPerPage(cfg, false, pt), 0);

    {
        Scope s(tr, "replay.model.prefill");
        const std::vector<int> prompt = promptTokens(512, 21);
        const double ms = medianMs(3, [&] {
            KvCache c = KvCache::forConfig(cfg, qc, prompt.size(), pool);
            model.prefill(prompt, c, qc);
        });
        m["model.prefill_ms_per_tok"] = ms / static_cast<double>(prompt.size());
    }

    {
        Scope s(tr, "replay.model.decodeStepBatch.short");
        std::vector<KvCache> caches;
        caches.reserve(4);
        for (size_t i = 0; i < 4; ++i) {
            caches.push_back(KvCache::forConfig(cfg, qc, 160, pool));
            model.prefill(promptTokens(128, 30 + i), caches.back(), qc);
        }
        m["model.decode_step_ms.b1"] =
            decodeStepMs(model, qc, {&caches[0]}, 7);
        m["model.decode_step_ms.b4"] = decodeStepMs(
            model, qc, {&caches[0], &caches[1], &caches[2], &caches[3]}, 7);
    }

    // Batch 16 at 1k context: one 1024-token prefill whose 32 frozen
    // pages every cache adopts, as the prefix cache would map them.
    const size_t ctx = 1024;
    KvCache base = KvCache::forConfig(cfg, qc, ctx, pool);
    {
        Scope s(tr, "replay.model.decodeStepBatch.b16");
        model.prefill(promptTokens(ctx, 40), base, qc);
        std::vector<KvCache> caches;
        caches.reserve(16);
        std::vector<uint32_t> ids(cfg.n_layers);
        for (size_t i = 0; i < 16; ++i) {
            caches.push_back(KvCache::forConfig(cfg, qc, ctx + 16, pool));
            for (size_t p = 0; p < ctx / pt; ++p) {
                for (size_t l = 0; l < cfg.n_layers; ++l)
                    ids[l] = base.pageId(l, p);
                caches.back().adoptSharedPage(ids.data());
            }
        }
        std::vector<KvCache *> ptrs;
        for (KvCache &c : caches)
            ptrs.push_back(&c);
        m["model.decode_step_ms.b16_ctx1k"] =
            decodeStepMs(model, qc, ptrs, 5);
    }

    // Codec: the K and quantized-V payload of every page of the
    // 1024-token cache, as the served attention quantizer wrote them.
    {
        Scope s(tr, "replay.codec");
        const mxplus::PageCodec *codec =
            mxplus::resolvePageCodec(opts.page_codec);
        const size_t floats = 2 * pt * cfg.d_model;
        std::vector<std::vector<float>> pages;
        for (size_t l = 0; l < cfg.n_layers; ++l) {
            for (size_t p = 0; p < base.pageCount(l); ++p) {
                std::vector<float> payload(floats);
                std::memcpy(payload.data(), base.keyPageData(l, p),
                            pt * cfg.d_model * sizeof(float));
                std::memcpy(payload.data() + pt * cfg.d_model,
                            base.valuePageData(l, p),
                            pt * cfg.d_model * sizeof(float));
                pages.push_back(std::move(payload));
            }
        }
        const double bytes =
            static_cast<double>(pages.size() * floats * sizeof(float));
        std::vector<std::vector<uint8_t>> enc(pages.size());
        const double enc_ms = medianMs(5, [&] {
            for (size_t i = 0; i < pages.size(); ++i)
                codec->encode(pages[i].data(), floats, enc[i]);
        });
        std::vector<float> out(floats);
        bool exact = true;
        const double dec_ms = medianMs(5, [&] {
            for (size_t i = 0; i < pages.size(); ++i) {
                exact = codec->decode(enc[i].data(), enc[i].size(),
                                      out.data(), floats) &&
                    exact;
            }
        });
        for (size_t i = 0; i < pages.size() && exact; ++i) {
            exact = codec->decode(enc[i].data(), enc[i].size(), out.data(),
                                  floats) &&
                std::memcmp(out.data(), pages[i].data(),
                            floats * sizeof(float)) == 0;
        }
        m["codec.encode_gbps"] = bytes / enc_ms / 1e6;
        m["codec.decode_gbps"] = bytes / dec_ms / 1e6;
        m["codec.replay_exact"] = exact ? 1.0 : 0.0;
    }
}

} // namespace

std::map<std::string, double>
replayLayers(const Transformer &model, const QuantConfig &qc,
             const mxplus::EngineOptions &opts,
             const std::map<size_t, size_t> &batch_hist, Tracer::Thread *tr)
{
    std::map<std::string, double> m;
    replayKernels(model, batch_hist, std::max<size_t>(1, opts.prefill_chunk),
                  tr, m);
    replayWeightQuantizer(model, qc, tr, m);
    replayModelAndCodec(model, qc, opts, tr, m);
    m["model.weight_quant_share"] =
        m["mx.weight_quantize_ms"] / m["model.decode_step_ms.b1"];
    return m;
}

} // namespace servebench
