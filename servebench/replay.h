// Layer replay: after the traced run, each layer's public entry points
// are called again on their own, at the shapes the workload produced,
// so a per-layer figure is a rate of that layer alone.
//
//  kernels  KernelDispatch::matvecBatch over the decode batch-size
//           histogram, gemmNT at the prefill-chunk shape, quantizeRows
//           with the MXFP4+ quantizer
//  mx       the served weight quantizer over every linear and the head
//  model    Transformer::decodeStepBatch at batch 1, 4 and 16 and
//           Transformer::prefill of a 512-token prompt
//  codec    PageCodec::encode/decode on page payloads the served
//           attention quantizer wrote into a KV cache
//
// Operation and byte counts are computed from tensor sizes.

#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "model/transformer.h"
#include "serve/serving_engine.h"
#include "trace.h"

namespace servebench {

/// Runs every replay and returns its metrics by name. @p batch_hist
/// maps each decode batch size the workload ran to its step count;
/// GEMMs run at @p opts.prefill_chunk rows.
std::map<std::string, double> replayLayers(
    const mxplus::Transformer &model, const mxplus::QuantConfig &qc,
    const mxplus::EngineOptions &opts,
    const std::map<size_t, size_t> &batch_hist, Tracer::Thread *tr);

} // namespace servebench
