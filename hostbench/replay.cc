/**
 * @file
 * Per-layer replay: after a workload's timed loop, the layer calls of
 * one decode step (or of the prompt side) are issued again from
 * outside the pipeline at the same shape, context length and device
 * state, and each call is timed on its own. Byte counts are computed
 * from tensor sizes, not measured.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.hh"
#include "core/attention.hh"
#include "core/kv_block_pool.hh"
#include "core/prefill_attention.hh"
#include "tensor/kernels.hh"
#include "util/thread_pool.hh"

namespace hostbench {

using namespace longsight;

namespace {

struct CallTimes
{
    double gen = 0, append = 0, kvAppend = 0, draw = 0, score = 0,
           subset = 0, dense = 0;
    uint64_t subsetCalls = 0, denseCalls = 0;
    uint64_t scoreKeys = 0;
    double scoreBytes = 0;
};

double
elapsed(double &t)
{
    const double now = nowSec();
    const double dt = now - t;
    t = now;
    return dt;
}

} // namespace

double
replayDecodeStep(const PipelineConfig &cfg,
                 const std::vector<LiveRequest> &live, Outcome &out)
{
    const uint32_t L = cfg.numLayers, H = cfg.numKvHeads, d = cfg.headDim;
    const uint32_t G = cfg.numQueryHeads / H;
    const size_t R = live.size();
    const size_t heads = size_t{L} * H;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    ThreadPool &pool = ThreadPool::global();
    const auto device_ctx = [&](size_t r, uint32_t l,
                                uint32_t h) -> KvCache * {
        DrexDevice &dev = *live[r].device;
        return dev.hasContext(live[r].uid, l, h)
            ? &dev.context(live[r].uid, l, h)
            : nullptr;
    };

    WorkloadConfig wcfg;
    wcfg.headDim = d;
    // Item (r, l, h) = r * heads + l * H + h, the pipeline's own
    // (layer, KV head) order within each request.
    std::vector<HeadWorkload> wls;
    wls.reserve(R * heads);
    for (const LiveRequest &lr : live)
        for (HeadWorkload &w : makeHeadWorkloads(wcfg, L * H, lr.seed))
            wls.push_back(std::move(w));
    // The pipeline's GPU-side caches, rebuilt at the same context:
    // paged over one block pool per request with the pipeline's block
    // size when the shape says so, flat otherwise, and with the
    // device's ITQ rotation installed when it has one.
    std::vector<std::unique_ptr<KvBlockPool>> pools;
    std::vector<KvCache> caches;
    caches.reserve(wls.size());
    for (size_t i = 0; i < wls.size(); ++i) {
        if (!cfg.pagedKv) {
            caches.emplace_back(d);
            continue;
        }
        if (i % heads == 0) {
            // Room for the context plus the three replayed tokens.
            const size_t bt = cfg.pagedBlockTokens;
            const size_t per_cache =
                (live[i / heads].context + 3 + bt - 1) / bt;
            pools.push_back(std::make_unique<KvBlockPool>(
                d, cfg.pagedBlockTokens,
                static_cast<uint32_t>(per_cache * heads)));
        }
        caches.emplace_back(*pools.back());
    }
    std::vector<CallTimes> ct(wls.size());

    uint64_t gen_tokens = 0;
    for (const LiveRequest &lr : live)
        gen_tokens += lr.context * heads;
    pool.parallelForEach(0, wls.size(), [&](size_t i) {
        double t = nowSec();
        wls[i].generate(live[i / heads].context);
        ct[i].gen = elapsed(t);
        caches[i].appendAll(wls[i].keys(), wls[i].values());
        const auto lh = static_cast<uint32_t>(i % heads);
        const KvCache *dc = device_ctx(i / heads, lh / H, lh % H);
        if (dc && dc->hasItqRotation())
            caches[i].setItqRotation(dc->itqRotation());
    });

    // The step is replayed three times and the last pass kept: the
    // pipeline's own step runs with a warm allocator (appendToken's
    // whole-context copies reuse the arena memory its previous step
    // freed instead of faulting in fresh pages), and it takes two
    // passes for the replay's copies to get there.
    double phase[4] = {}; // append, draw, offload, combine
    double offload_sec = 0.0;
    uint64_t offloads = 0, survivors = 0, region = 0;
    std::vector<Matrix> queries(R * H), fqueries(R * H);
    std::vector<std::vector<AttentionResponse>> responses(R);
    for (int pass = 0; pass < 3; ++pass) {
        std::fill(std::begin(phase), std::end(phase), 0.0);
        offload_sec = 0.0;
        offloads = survivors = region = 0;
        for (CallTimes &c : ct)
            c = CallTimes{c.gen};
        // Phase 1: every (request, layer, head) appends its token.
        double t0 = nowSec();
        pool.parallelForEach(0, wls.size(), [&](size_t i) {
            HeadWorkload &wl = wls[i];
            double t = nowSec();
            wl.appendToken();
            ct[i].append = elapsed(t);
            const size_t pos = wl.contextLength() - 1;
            caches[i].append(wl.keys().row(pos), wl.values().row(pos));
            ct[i].kvAppend = elapsed(t);
        });
        phase[0] += nowSec() - t0;

        for (uint32_t l = 0; l < L; ++l) {
            // Phase 2: draw the layer's grouped queries.
            t0 = nowSec();
            pool.parallelForEach(0, R * H, [&](size_t rh) {
                const size_t r = rh / H;
                const uint32_t h = static_cast<uint32_t>(rh % H);
                const size_t i = r * heads + l * H + h;
                queries[rh].resize(G, d);
                fqueries[rh].resize(G, d);
                for (uint32_t g = 0; g < G; ++g) {
                    double t = nowSec();
                    const auto q = wls[i].drawQuery();
                    ct[i].draw += elapsed(t);
                    queries[rh].setRow(g, q.data());
                    caches[i].toFilterSpace(q.data(), fqueries[rh].row(g));
                }
            });
            phase[1] += nowSec() - t0;

            // Phase 3: one device offload per request, FIFO.
            t0 = nowSec();
            for (size_t r = 0; r < R; ++r) {
                responses[r].clear();
                const size_t sinks =
                    std::min<size_t>(cfg.hybrid.sinkTokens, live[r].context);
                if (live[r].flushed <= sinks)
                    continue;
                AttentionRequest req;
                req.uid = live[r].uid;
                req.layer = l;
                for (uint32_t h = 0; h < H; ++h) {
                    OffloadSpec spec;
                    spec.user = live[r].uid;
                    spec.layer = l;
                    spec.kvHead = h;
                    spec.sparseBegin = sinks;
                    spec.sparseEnd = live[r].flushed;
                    spec.numQueries = G;
                    spec.k = cfg.hybrid.topK;
                    spec.threshold = cfg.hybrid.defaultThreshold;
                    spec.cache = device_ctx(r, l, h);
                    spec.queries = &queries[r * H + h];
                    spec.filterQueries = &fqueries[r * H + h];
                    req.headOffloads.push_back(spec);
                }
                DrexDevice &dev = *live[r].device;
                double t = nowSec();
                dev.submit(std::move(req));
                responses[r] = dev.processAll();
                offload_sec += elapsed(t);
                ++offloads;
                for (const OffloadResult &hr : responses[r].front().headResults) {
                    survivors += hr.survivors;
                    region += hr.regionTokens;
                }
            }
            phase[2] += nowSec() - t0;

            // Phase 4: per (KV head, request), the oracle-A grouped
            // score-select, then per query the subset combine and the
            // oracle-B dense probe.
            t0 = nowSec();
            pool.parallelForEach(0, R * H, [&](size_t item) {
                const uint32_t h = static_cast<uint32_t>(item / R);
                const size_t r = item % R;
                const size_t i = r * heads + l * H + h;
                const LiveRequest &lr = live[r];
                const KvCache &cache = caches[i];
                const size_t n = cache.size();
                const size_t sinks = std::min<size_t>(cfg.hybrid.sinkTokens, n);
                const bool offload = !responses[r].empty();
                const Matrix &qs = queries[r * H + h];
                std::vector<uint32_t> hw;
                if (offload) {
                    const SignMatrix &signs = cache.filterSignsStorage();
                    const size_t wpr = signs.wordsPerRow();
                    std::vector<uint64_t> qw(G * wpr);
                    for (uint32_t g = 0; g < G; ++g)
                        packSigns(fqueries[r * H + h].row(g), d,
                                  qw.data() + g * wpr);
                    const size_t kcap =
                        std::min<size_t>(cfg.hybrid.topK, lr.flushed - sinks);
                    std::vector<ScoredIndex> sel(G * kcap);
                    std::vector<size_t> sizes(G), surv(G);
                    std::vector<ScanSpan> spans(
                        cache.maxSpans(sinks, lr.flushed));
                    const size_t nspans =
                        cache.collectSpans(sinks, lr.flushed, spans.data());
                    std::vector<size_t> span_surv(nspans);
                    double t = nowSec();
                    batchScoreSelectMultiSpans(
                        qw.data(), G, signs, spans.data(), nspans,
                        cfg.hybrid.defaultThreshold, qs.row(0), d,
                        cache.keysStorage(), scale, cfg.hybrid.topK, sel.data(),
                        kcap, sizes.data(), surv.data(), span_surv.data());
                    ct[i].score += elapsed(t);
                    // The pipeline credits each span's scan to the
                    // pool's residency counters; so does the replay.
                    if (cache.paged())
                        for (size_t si = 0; si < nspans; ++si)
                            cache.recordFilterScan(
                                spans[si], uint64_t{G} * spans[si].count,
                                span_surv[si]);
                    ct[i].scoreKeys += lr.flushed - sinks;
                    ct[i].scoreBytes += static_cast<double>(lr.flushed - sinks) *
                        wpr * 8.0;
                    for (uint32_t g = 0; g < G; ++g)
                        ct[i].scoreBytes += static_cast<double>(surv[g]) * d * 4.0;
                }
                std::vector<uint32_t> attended;
                std::vector<float> probs(n), o(d);
                for (uint32_t g = 0; g < G; ++g) {
                    attended.clear();
                    for (size_t t = 0; t < sinks; ++t)
                        attended.push_back(static_cast<uint32_t>(t));
                    if (offload) {
                        hw.clear();
                        for (const ScoredIndex &s : responses[r]
                                                        .front()
                                                        .headResults[h]
                                                        .topk[g])
                            hw.push_back(s.index);
                        std::sort(hw.begin(), hw.end());
                        attended.insert(attended.end(), hw.begin(), hw.end());
                    }
                    for (size_t t = std::max(lr.flushed, sinks); t < n; ++t)
                        attended.push_back(static_cast<uint32_t>(t));
                    double t = nowSec();
                    subsetAttentionInto(qs.row(g), cache, attended.data(),
                                        attended.size(), scale, probs.data(),
                                        o.data());
                    ct[i].subset += elapsed(t);
                    denseAttentionInto(qs.row(g), cache, scale, probs.data(),
                                       o.data());
                    ct[i].dense += elapsed(t);
                    ++ct[i].subsetCalls;
                    ++ct[i].denseCalls;
                }
            });
            phase[3] += nowSec() - t0;
        }
    }
    const double wall = phase[0] + phase[1] + phase[2] + phase[3];
    std::fprintf(stderr,
                 "replayed step: %.2f ms = append %.2f + draw %.2f + "
                 "offload %.2f + combine %.2f\n",
                 wall * 1e3, phase[0] * 1e3, phase[1] * 1e3, phase[2] * 1e3,
                 phase[3] * 1e3);

    CallTimes sum;
    for (const CallTimes &c : ct) {
        sum.gen += c.gen;
        sum.append += c.append;
        sum.kvAppend += c.kvAppend;
        sum.draw += c.draw;
        sum.score += c.score;
        sum.subset += c.subset;
        sum.dense += c.dense;
        sum.subsetCalls += c.subsetCalls;
        sum.denseCalls += c.denseCalls;
        sum.scoreKeys += c.scoreKeys;
        sum.scoreBytes += c.scoreBytes;
    }
    const double items = static_cast<double>(wls.size());
    const auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
    out.add("model.append_token_us", per(sum.append, items) * 1e6, "us");
    out.add("model.draw_query_us", per(sum.draw, items * G) * 1e6, "us");
    out.add("model.generate_us_per_tok",
            per(sum.gen, static_cast<double>(gen_tokens)) * 1e6, "us");
    out.add("core.kv_append_us", per(sum.kvAppend, items) * 1e6, "us");
    out.add("core.subset_attn_us",
            per(sum.subset, static_cast<double>(sum.subsetCalls)) * 1e6,
            "us");
    out.add("core.dense_probe_us",
            per(sum.dense, static_cast<double>(sum.denseCalls)) * 1e6, "us");
    out.add("tensor.score_select_mkeys_s",
            per(static_cast<double>(sum.scoreKeys), sum.score) / 1e6,
            "Mkeys/s");
    out.add("tensor.score_select_gb_s", per(sum.scoreBytes, sum.score) / 1e9,
            "GB/s");
    out.add("drex.offload_ms",
            per(offload_sec, static_cast<double>(offloads)) * 1e3, "ms");
    out.add("drex.survivor_frac",
            per(static_cast<double>(survivors), static_cast<double>(region)),
            "ratio");
    const double calls = sum.append + sum.kvAppend + sum.draw + offload_sec +
        sum.score + sum.subset + sum.dense;
    out.add("sim.oracle_share", per(sum.score + sum.dense, calls), "ratio");
    return wall;
}

void
replayPromptSide(const PipelineConfig &cfg, uint64_t seed, size_t prompt,
                 Outcome &out)
{
    const uint32_t d = cfg.headDim;
    WorkloadConfig wcfg;
    wcfg.headDim = d;
    HeadWorkload wl = std::move(makeHeadWorkloads(wcfg, 1, seed).front());
    wl.generate(prompt);
    const Matrix &K = wl.keys();
    const Matrix &V = wl.values();

    // The block-sparse prompt pass over the whole prompt at once, the
    // call monolithic prefill() makes per (layer, KV head).
    BlockSparsePrefill pass(d, cfg.prefillSparsity);
    Matrix o(prompt, d);
    double t = nowSec();
    pass.advance(K, K, V, wl.attentionScale(), prompt, true, o);
    out.add("core.prefill_pass_us_per_tok",
            elapsed(t) / static_cast<double>(prompt) * 1e6, "us");
    out.add("core.prefill_block_skip", pass.stats().blockSkipFraction(),
            "ratio");
    out.add("core.prefill_attended_frac", pass.stats().attendedFraction(),
            "ratio");

    // Block signatures over every complete block of packed key signs,
    // repeated so the timed region is long enough to resolve.
    SignMatrix signs(d);
    for (size_t i = 0; i < prompt; ++i)
        signs.appendRow(K.row(i));
    const size_t B = cfg.prefillSparsity.blockTokens;
    const size_t blocks = prompt / B;
    const size_t wpr = signs.wordsPerRow();
    std::vector<uint64_t> sigs(std::max<size_t>(blocks, 1) * wpr);
    constexpr int kRepeats = 20;
    t = nowSec();
    for (int rep = 0; rep < kRepeats; ++rep)
        for (size_t b = 0; b < blocks; ++b)
            blockSignReduce(signs, b * B, (b + 1) * B, sigs.data() + b * wpr);
    out.add("tensor.sign_reduce_mrows_s",
            static_cast<double>(blocks * B) * kRepeats / elapsed(t) / 1e6,
            "Mrows/s");

    // One multi-query scan pass: kMaxScanQueries block signatures
    // tested against every key sign row.
    const size_t nq = std::min(kMaxScanQueries, std::max<size_t>(blocks, 1));
    std::vector<uint32_t> surv(nq * prompt);
    std::vector<size_t> counts(nq);
    t = nowSec();
    for (int rep = 0; rep < kRepeats; ++rep)
        batchScanMulti(sigs.data(), nq, signs, 0, prompt,
                       static_cast<int>(d / 2), surv.data(), prompt,
                       counts.data());
    out.add("tensor.scan_multi_mkeys_s",
            static_cast<double>(prompt) * kRepeats / elapsed(t) / 1e6,
            "Mkeys/s");

    // Bulk context writes into a scratch device, one per KV head.
    DrexConfig dcfg;
    dcfg.numKvHeads = cfg.numKvHeads;
    dcfg.numLayers = cfg.numLayers;
    dcfg.headDim = d;
    DrexDevice scratch(dcfg);
    t = nowSec();
    for (uint32_t h = 0; h < cfg.numKvHeads; ++h)
        scratch.writeContext(0, 0, h, K, V);
    out.add("drex.write_context_gb_s",
            static_cast<double>(cfg.numKvHeads) * prompt * d * 8.0 /
                elapsed(t) / 1e9,
            "GB/s");
}

double
streamProbeGbs()
{
    constexpr size_t kBytes = size_t{64} << 20;
    constexpr int kRepeats = 8;
    std::vector<char> src(kBytes, 1), dst(kBytes, 0);
    std::memcpy(dst.data(), src.data(), kBytes); // fault pages in
    double t = nowSec();
    for (int rep = 0; rep < kRepeats; ++rep) {
        src[static_cast<size_t>(rep)] = static_cast<char>(rep);
        std::memcpy(dst.data(), src.data(), kBytes);
    }
    const double sec = elapsed(t);
    // Read plus write traffic of each copy.
    return dst[3] >= 0 ? 2.0 * kBytes * kRepeats / sec / 1e9 : 0.0;
}

} // namespace hostbench
