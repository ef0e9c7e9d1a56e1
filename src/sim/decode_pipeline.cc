#include "sim/decode_pipeline.hh"

#include <algorithm>
#include <cmath>

#include "core/attention.hh"
#include "core/itq.hh"
#include "core/scf.hh"
#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/scratch_arena.hh"
#include "util/thread_pool.hh"

namespace longsight {

DecodePipeline::DecodePipeline(const PipelineConfig &cfg, DrexDevice &device,
                               uint32_t uid)
    : cfg_(cfg), device_(device), uid_(uid)
{
    LS_ASSERT(cfg.numQueryHeads % cfg.numKvHeads == 0,
              "GQA requires query heads % KV heads == 0");
    LS_ASSERT(device.config().headDim == cfg.headDim,
              "device head dim mismatch");
    // The query-head -> KV-head mapping is fixed for the pipeline's
    // lifetime; derive it once here, not per decode step.
    group_ = cfg_.numQueryHeads / cfg_.numKvHeads;
    WorkloadConfig wcfg;
    wcfg.headDim = cfg_.headDim;
    if (cfg_.pagedKv) {
        // One private pool serves every (layer, KV head) cache; size
        // it for the configured block count, or derive one from the
        // context ceiling when unset.
        uint32_t blocks = cfg_.pagedPoolBlocks;
        if (blocks == 0) {
            const uint32_t per_cache =
                (cfg_.pagedMaxContext + cfg_.pagedBlockTokens - 1) /
                cfg_.pagedBlockTokens;
            blocks = per_cache * cfg_.numLayers * cfg_.numKvHeads;
        }
        pool_ = std::make_unique<KvBlockPool>(
            cfg_.headDim, cfg_.pagedBlockTokens, blocks);
    }
    Rng root(cfg_.seed);
    for (uint32_t l = 0; l < cfg_.numLayers; ++l) {
        for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
            workloads_.emplace_back(wcfg, root.fork());
            gpuCaches_.push_back(
                pool_ ? std::make_unique<KvCache>(*pool_)
                      : std::make_unique<KvCache>(cfg_.headDim));
        }
    }
    if (cfg_.prefillAttention) {
        LS_ASSERT(cfg_.prefillHeadThresholds.empty() ||
                      cfg_.prefillHeadThresholds.size() ==
                          cfg_.numKvHeads,
                  "prefillHeadThresholds must be empty or hold one "
                  "entry per KV head");
        for (uint32_t l = 0; l < cfg_.numLayers; ++l) {
            for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
                PrefillSparsityConfig pc = cfg_.prefillSparsity;
                if (!cfg_.prefillHeadThresholds.empty())
                    pc.threshold = cfg_.prefillHeadThresholds[h];
                prefillAttn_.push_back(
                    std::make_unique<BlockSparsePrefill>(cfg_.headDim,
                                                         pc));
                prefillOut_.emplace_back(0, cfg_.headDim);
            }
        }
    }
}

KvCache &
DecodePipeline::gpuCache(uint32_t layer, uint32_t head)
{
    return *gpuCaches_[layer * cfg_.numKvHeads + head];
}

size_t
DecodePipeline::contextLength() const
{
    // A zero-layer or zero-head config owns no caches; its context is
    // empty rather than undefined.
    return gpuCaches_.empty() ? 0 : gpuCaches_.front()->size();
}

void
DecodePipeline::prefill(size_t n)
{
    // Each (layer, KV head) group owns its HeadWorkload (forked RNG)
    // and its KvCache, so groups generate independently.
    ThreadPool::global().parallelFor(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            HeadWorkload &wl = workloads_[idx];
            wl.generate(n);
            gpuCaches_[idx]->appendAll(wl.keys(), wl.values());
        });
    maybeTrainItq();
    flushEligibleGroups();
    advancePrefillAttention(false);
}

void
DecodePipeline::prefillChunk(size_t n)
{
    if (n == 0)
        return;
    if (contextLength() == 0) {
        prefill(n);
        return;
    }
    // Extend each (layer, KV head) context token by token: appendToken
    // advances the same RNG stream generate() would, so chunked and
    // monolithic prefill build identical contexts.
    ThreadPool::global().parallelFor(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            HeadWorkload &wl = workloads_[idx];
            for (size_t t = 0; t < n; ++t) {
                wl.appendToken();
                const size_t pos = wl.contextLength() - 1;
                gpuCaches_[idx]->append(wl.keys().row(pos),
                                        wl.values().row(pos));
            }
        });
    maybeTrainItq();
    flushEligibleGroups();
    advancePrefillAttention(false);
}

void
DecodePipeline::advancePrefillAttention(bool flush)
{
    if (!cfg_.prefillAttention || prefillFrozen_)
        return;
    // Parallel over (layer, KV head): each lane owns its head's whole
    // sparse prompt pass (nested parallel loops inside advance() run
    // serially), writing only its own output matrix.
    ThreadPool::global().parallelFor(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            HeadWorkload &wl = workloads_[idx];
            const size_t n = wl.keys().rows();
            Matrix &out = prefillOut_[idx];
            if (out.rows() < n) {
                // Grow preserving already-attended rows (Matrix::resize
                // discards); new rows are filled by advance() as their
                // Q-blocks complete.
                const std::vector<float> zero(cfg_.headDim, 0.0f);
                while (out.rows() < n)
                    out.appendRow(zero.data());
            }
            prefillAttn_[idx]->advance(wl.keys(), wl.keys(),
                                       wl.values(),
                                       wl.attentionScale(), n, flush,
                                       out);
        });
    if (flush)
        prefillFrozen_ = true;
}

void
DecodePipeline::flushPrefillAttention()
{
    advancePrefillAttention(true);
}

const Matrix &
DecodePipeline::prefillAttentionOutput(uint32_t layer,
                                       uint32_t kv_head) const
{
    LS_ASSERT(cfg_.prefillAttention, "prefillAttention is disabled");
    return prefillOut_[layer * cfg_.numKvHeads + kv_head];
}

const BlockSparsePrefill &
DecodePipeline::prefillAttentionHead(uint32_t layer,
                                     uint32_t kv_head) const
{
    LS_ASSERT(cfg_.prefillAttention, "prefillAttention is disabled");
    return *prefillAttn_[layer * cfg_.numKvHeads + kv_head];
}

PrefillStats
DecodePipeline::prefillAttentionStats() const
{
    PrefillStats total;
    for (const auto &head : prefillAttn_)
        total.merge(head->stats());
    return total;
}

void
DecodePipeline::maybeTrainItq()
{
    if (!cfg_.trainItq || itqInstalled_)
        return;
    const size_t n = contextLength();
    if (n < cfg_.headDim * 4)
        return; // not enough data yet
    // Training is per-group: each group rotates its own caches with a
    // seed derived only from (layer, head), so groups are independent.
    ThreadPool::global().parallelFor(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            const uint32_t l =
                static_cast<uint32_t>(idx) / cfg_.numKvHeads;
            const uint32_t h =
                static_cast<uint32_t>(idx) % cfg_.numKvHeads;
            KvCache &cache = gpuCache(l, h);
            const size_t nk = std::min<size_t>(n, 896);
            Matrix train(nk, cfg_.headDim);
            for (size_t i = 0; i < nk; ++i)
                train.setRow(i, cache.keyRow(i * n / nk));
            Rng rng(cfg_.seed ^ (l * 131 + h));
            Matrix rotation = trainItqRotation(train, 15, rng);
            cache.setItqRotation(rotation);
            if (device_.hasContext(uid_, l, h))
                device_.context(uid_, l, h).setItqRotation(rotation);
        });
    itqInstalled_ = true;
}

void
DecodePipeline::flushEligibleGroups()
{
    const size_t n = contextLength();
    // Tokens older than the window are eligible; ship them in whole
    // object groups so Key/Key-Sign/Value Objects stay aligned (§6).
    const size_t window = cfg_.hybrid.windowSize;
    const size_t eligible = n > window ? n - window : 0;
    const size_t target =
        eligible / cfg_.flushGranularity * cfg_.flushGranularity;
    if (target <= flushed_)
        return;

    // Groups ship disjoint (layer, head) contexts; writeContext
    // serializes only the store lookup, so the copies overlap.
    ThreadPool::global().parallelFor(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            const uint32_t l =
                static_cast<uint32_t>(idx) / cfg_.numKvHeads;
            const uint32_t h =
                static_cast<uint32_t>(idx) % cfg_.numKvHeads;
            const KvCache &src = gpuCache(l, h);
            const size_t count = target - flushed_;
            Matrix keys(count, cfg_.headDim);
            Matrix values(count, cfg_.headDim);
            for (size_t i = 0; i < count; ++i) {
                keys.setRow(i, src.keyRow(flushed_ + i));
                values.setRow(i, src.valueRow(flushed_ + i));
            }
            KvCache &dst = device_.writeContext(uid_, l, h, keys, values);
            if (src.hasItqRotation() && !dst.hasItqRotation())
                dst.setItqRotation(src.itqRotation());
        });
    flushed_ = target;
}

PipelineStepResult
DecodePipeline::decodeStep()
{
    LS_DETERMINISTIC();
    // The batch path with one request IS the single-request path; the
    // per-layer phases run in exactly the order the pre-batch step
    // did, so there is one implementation to keep correct. The
    // one-element batch and result vectors are members so the steady-
    // state step allocates nothing here.
    if (selfBatch_.empty())
        selfBatch_.push_back(this);
    decodeStepBatch(selfBatch_, selfResults_);
    return selfResults_.front();
}

GroupedScanStats
DecodePipeline::decodeStepBatch(const std::vector<DecodePipeline *> &batch,
                                std::vector<PipelineStepResult> &results)
{
    LS_DETERMINISTIC();
    GroupedScanStats stats;
    results.clear();
    results.resize(batch.size());
    if (batch.empty())
        return stats;
    stats.requests = batch.size();
    const PipelineConfig &shape = batch.front()->cfg_;
    for (const DecodePipeline *p : batch)
        LS_ASSERT(p->cfg_.numLayers == shape.numLayers &&
                      p->cfg_.numQueryHeads == shape.numQueryHeads &&
                      p->cfg_.numKvHeads == shape.numKvHeads &&
                      p->cfg_.headDim == shape.headDim,
                  "batched decode requires a uniform model shape");

    // The prompt ends where decode begins: settle any deferred
    // sparse-prefill tail BEFORE this step appends new tokens, so the
    // prompt pass never sees decode tokens (no-op when disabled or
    // already flushed).
    for (DecodePipeline *p : batch)
        p->flushPrefillAttention();

    // Phases 1-2 per request: token append and bulk flush only touch
    // the request's own state.
    for (size_t ri = 0; ri < batch.size(); ++ri)
        batch[ri]->stepAppendAndFlush(results[ri]);

    const size_t nreq = batch.size();
    std::vector<std::vector<AttentionResponse>> responses(nreq);
    std::vector<uint8_t> offloaded(nreq, 0);

    for (uint32_t l = 0; l < shape.numLayers; ++l) {
        // Phase 3 per request: draw the layer's grouped queries and
        // run the device offload (FIFO per request, as one request at
        // a time would).
        for (size_t ri = 0; ri < nreq; ++ri)
            offloaded[ri] = batch[ri]->stepOffloadLayer(
                                l, results[ri], responses[ri])
                ? 1
                : 0;

        // Phase 4, grouped across the batch: one work item per
        // (KV head, request), KV-head-major, so every request's
        // queries against the same (layer, KV head) are adjacent in
        // the dispatch order. Each item combines and verifies its
        // head's WHOLE query group with one grouped scan. Items write
        // disjoint per-request lane slots; verdicts fold serially per
        // request, so results are bit-identical for any thread count
        // and any batch composition.
        ThreadPool::global().parallelForEach(
            0, nreq * shape.numKvHeads, [&](size_t item) {
                // Annotated directly: thread-pool dispatch is opaque
                // to the call-graph walk, so the body is its own root.
                LS_PARALLEL_BODY();
                LS_HOT_PATH();
                LS_DETERMINISTIC();
                LS_NO_LOCK();
                const auto h = static_cast<uint32_t>(item / nreq);
                const size_t ri = item % nreq;
                batch[ri]->stepCombineHead(l, h, offloaded[ri] != 0,
                                           responses[ri]);
            });
        for (size_t ri = 0; ri < nreq; ++ri) {
            batch[ri]->stepFoldLayer(results[ri]);
            stats.groupedItems += shape.numKvHeads;
            if (offloaded[ri]) {
                stats.scanPasses += shape.numKvHeads;
                stats.ungroupedEquivalent += shape.numQueryHeads;
            }
        }
    }
    return stats;
}

void
DecodePipeline::stepAppendAndFlush(PipelineStepResult &result)
{
    // 1. New token: every (layer, head) appends one KV pair.
    ThreadPool::global().parallelForEach(
        0, workloads_.size(), [&](size_t idx) {
            LS_PARALLEL_BODY();
            LS_HOT_PATH();
            LS_DETERMINISTIC();
            HeadWorkload &wl = workloads_[idx];
            wl.appendToken();
            const size_t pos = wl.contextLength() - 1;
            gpuCaches_[idx]->append(wl.keys().row(pos),
                                    wl.values().row(pos));
        });

    // 2. Bulk updates off the critical path.
    const size_t before = flushed_;
    flushEligibleGroups();
    result.tokensFlushed = (flushed_ - before) * cfg_.numLayers *
        cfg_.numKvHeads;

    stepQueries_.resize(cfg_.numKvHeads);
    stepFilterQueries_.resize(cfg_.numKvHeads);
}

bool
DecodePipeline::stepOffloadLayer(uint32_t l, PipelineStepResult &result,
                                 std::vector<AttentionResponse> &responses)
{
    const size_t n = contextLength();
    const size_t sinks = std::min<size_t>(cfg_.hybrid.sinkTokens, n);

    // 3. Request: one offload per KV head, grouped GQA queries.
    std::vector<Matrix> &queries = stepQueries_;
    std::vector<Matrix> &filter_queries = stepFilterQueries_;
    AttentionRequest req;
    req.uid = uid_;
    req.layer = l;
    const bool offload = flushed_ > sinks;
    // Draw the layer's queries in parallel: each KV head advances
    // only its own workload RNG, so the streams are the same ones
    // a serial loop would produce.
    ThreadPool::global().parallelForEach(
        0, cfg_.numKvHeads, [&](size_t hi) {
            LS_PARALLEL_BODY();
            const auto h = static_cast<uint32_t>(hi);
            HeadWorkload &wl = workloads_[l * cfg_.numKvHeads + h];
            const KvCache &cache = gpuCache(l, h);
            queries[h].resize(group_, cfg_.headDim);
            filter_queries[h].resize(group_, cfg_.headDim);
            for (uint32_t g = 0; g < group_; ++g) {
                const auto q = wl.drawQuery();
                queries[h].setRow(g, q.data());
                cache.toFilterSpace(q.data(), filter_queries[h].row(g));
            }
        });
    for (uint32_t h = 0; h < cfg_.numKvHeads; ++h) {
        if (!offload)
            continue;
        OffloadSpec spec;
        spec.user = uid_;
        spec.layer = l;
        spec.kvHead = h;
        spec.sparseBegin = sinks;
        spec.sparseEnd = flushed_;
        spec.numQueries = group_;
        spec.k = cfg_.hybrid.topK;
        spec.threshold = cfg_.hybrid.defaultThreshold;
        spec.cache = &device_.context(uid_, l, h);
        spec.queries = &queries[h];
        spec.filterQueries = &filter_queries[h];
        req.headOffloads.push_back(spec);
    }

    responses.clear();
    if (offload) {
        device_.submit(std::move(req));
        responses = device_.processAll();
        ++result.offloadsIssued;
    }

    // Fresh lane verdicts for this layer's combine phase.
    const size_t lanes = static_cast<size_t>(cfg_.numKvHeads) * group_;
    laneMass_.assign(lanes, 1.0);
    laneMatched_.assign(lanes, 1);
    return offload;
}

void
DecodePipeline::stepCombineHead(
    uint32_t l, uint32_t h, bool offload,
    const std::vector<AttentionResponse> &responses)
{
    LS_HOT_PATH();
    LS_DETERMINISTIC();
    LS_NO_LOCK();
    const size_t n = contextLength();
    const size_t sinks = std::min<size_t>(cfg_.hybrid.sinkTokens, n);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(cfg_.headDim));
    const KvCache &cache = gpuCache(l, h);
    const Matrix &queries = stepQueries_[h];
    ScratchFrame frame(ScratchArena::forThisThread());

    // Verification A precompute, grouped: ONE scan over the offloaded
    // region [sinks, flushed_) serves the head's whole query group —
    // the sign rows and survivor key tiles stream through all group_
    // concordance tests and top-k heaps together, where the per-query
    // dispatch re-read them group_ times. Per query the expected
    // selection is bit-identical to a one-query pass.
    ScoredIndex *expect = nullptr;
    size_t *expect_sizes = nullptr;
    size_t kcap = 0;
    if (offload) {
        const SignMatrix &signs = cache.filterSignsStorage();
        const size_t wpr = signs.wordsPerRow();
        uint64_t *qw = frame.alloc<uint64_t>(group_ * wpr);
        for (uint32_t g = 0; g < group_; ++g)
            packSigns(stepFilterQueries_[h].row(g), cfg_.headDim,
                      qw + g * wpr);
        kcap = std::min<size_t>(cfg_.hybrid.topK, flushed_ - sinks);
        expect = frame.alloc<ScoredIndex>(group_ * kcap);
        expect_sizes = frame.alloc<size_t>(group_);
        // Span-aware driver: the flat cache routes through the single
        // identity span, a paged cache through its block table, with
        // per-query selections element-identical either way. Survivor
        // totals per span feed the pool's SCF residency counters.
        ScanSpan *spans =
            frame.alloc<ScanSpan>(cache.maxSpans(sinks, flushed_));
        const size_t nspans = cache.collectSpans(sinks, flushed_, spans);
        size_t *span_surv = frame.alloc<size_t>(nspans);
        batchScoreSelectMultiSpans(qw, group_, signs, spans, nspans,
                                   cfg_.hybrid.defaultThreshold,
                                   queries.row(0), queries.cols(),
                                   cache.keysStorage(), scale,
                                   cfg_.hybrid.topK, expect, kcap,
                                   expect_sizes, nullptr, span_surv);
        if (cache.paged())
            for (size_t si = 0; si < nspans; ++si)
                cache.recordFilterScan(spans[si],
                                       uint64_t{group_} * spans[si].count,
                                       span_surv[si]);
    }

    // GPU-side combine + verification, per query of the group. Lane
    // buffers come from this thread's scratch arena, reclaimed per
    // query; verdicts land in this head's disjoint lane slots.
    for (uint32_t g = 0; g < group_; ++g) {
        const size_t lane = static_cast<size_t>(h) * group_ + g;
        ScratchFrame lane_frame(frame.arena());

        // Dense part: sinks, device top-k, and everything not yet
        // flushed (window plus staging buffer). The three sources
        // are disjoint ascending ranges — the top-k lives in
        // [sinks, flushed_) and the staged tail starts at
        // max(flushed_, sinks) — so concatenating them in order
        // replaces the old sort + unique.
        const size_t staged_begin = std::max(flushed_, sinks);
        uint32_t *attended = lane_frame.alloc<uint32_t>(
            sinks + (n - staged_begin) + cfg_.hybrid.topK);
        size_t na = 0;
        for (size_t i = 0; i < sinks; ++i)
            attended[na++] = static_cast<uint32_t>(i);

        uint32_t *hw_topk = nullptr;
        size_t n_hw = 0;
        if (offload) {
            const auto &head_result = responses[0].headResults[h];
            const auto &tk = head_result.topk[g];
            n_hw = tk.size();
            hw_topk = lane_frame.alloc<uint32_t>(n_hw);
            for (size_t i = 0; i < n_hw; ++i)
                hw_topk[i] = tk[i].index;
            std::sort(hw_topk, hw_topk + n_hw);
            for (size_t i = 0; i < n_hw; ++i)
                attended[na++] = hw_topk[i];
        }
        for (size_t i = staged_begin; i < n; ++i)
            attended[na++] = static_cast<uint32_t>(i);

        const float *q = queries.row(g);
        float *probs = lane_frame.alloc<float>(na);
        float *combined = lane_frame.alloc<float>(cfg_.headDim);
        subsetAttentionInto(q, cache, attended, na, scale, probs,
                            combined);
        (void)combined;

        // Verification A: device top-k equals the software filter ->
        // score -> rank selection precomputed by the grouped scan.
        if (offload) {
            const ScoredIndex *sel = expect + g * kcap;
            const size_t nsel = expect_sizes[g];
            bool matched = nsel == n_hw;
            if (matched) {
                uint32_t *sw = lane_frame.alloc<uint32_t>(nsel);
                for (size_t i = 0; i < nsel; ++i)
                    sw[i] = sel[i].index;
                std::sort(sw, sw + nsel);
                matched = std::equal(sw, sw + nsel, hw_topk);
            }
            if (!matched)
                laneMatched_[lane] = 0;
        }

        // Verification B: retained dense softmax mass.
        float *dense_probs = lane_frame.alloc<float>(n);
        float *dense_out = lane_frame.alloc<float>(cfg_.headDim);
        denseAttentionInto(q, cache, scale, dense_probs, dense_out);
        double mass = 0.0;
        for (size_t i = 0; i < na; ++i)
            mass += dense_probs[attended[i]];
        laneMass_[lane] = mass;
    }
}

void
DecodePipeline::stepFoldLayer(PipelineStepResult &result)
{
    const size_t lanes = static_cast<size_t>(cfg_.numKvHeads) * group_;
    for (size_t lane = 0; lane < lanes; ++lane) {
        result.minRetainedMass =
            std::min(result.minRetainedMass, laneMass_[lane]);
        if (!laneMatched_[lane])
            result.deviceMatchedSoftware = false;
    }
}

} // namespace longsight
