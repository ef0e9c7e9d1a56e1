/**
 * @file
 * The three workloads. Each builds its inputs from --seed, warms up,
 * measures until --seconds have passed (never with fewer samples than
 * a reported percentile needs), checks the program's outputs against
 * the references in checks.cc, and reports end-to-end metrics
 * (--trace 0) or the per-layer replay (--trace 1). Shapes and their
 * reasons are recorded in README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <memory>

#include "bench.hh"
#include "checks.hh"
#include "model/traffic.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace hostbench {

using namespace longsight;

namespace {

/** Percentiles need this many samples beyond them to be reported. */
constexpr size_t kMinGapsForP90 = 100;

PipelineConfig
shape(uint32_t layers, uint32_t head_dim, uint32_t window, uint32_t top_k)
{
    PipelineConfig cfg;
    cfg.numLayers = layers;
    cfg.numQueryHeads = 32;
    cfg.numKvHeads = 8;
    cfg.headDim = head_dim;
    cfg.hybrid.windowSize = window;
    cfg.hybrid.topK = top_k;
    cfg.hybrid.sinkTokens = 16;
    // SCF threshold 21d/32: about 1 key in 20 survives per query on
    // this generator (d/4 passes every key).
    cfg.hybrid.defaultThreshold = static_cast<int>(21 * head_dim / 32);
    // Prompt-pass knob 5d/8 (used by prefill_sparse and by every
    // workload's prompt-side replay).
    cfg.prefillSparsity.blockTokens = 128;
    cfg.prefillSparsity.mode = PrefillSparsityMode::Threshold;
    cfg.prefillSparsity.threshold = static_cast<int>(5 * head_dim / 8);
    cfg.prefillSparsity.sinkTokens = 16;
    cfg.prefillSparsity.windowTokens = 512;
    return cfg;
}

DrexConfig
deviceFor(const PipelineConfig &cfg)
{
    DrexConfig d;
    d.numKvHeads = cfg.numKvHeads;
    d.numLayers = cfg.numLayers;
    d.headDim = cfg.headDim;
    return d;
}

StepVerdict
verdictOf(const PipelineStepResult &r)
{
    return {r.offloadsIssued, r.tokensFlushed, r.minRetainedMass,
            r.deviceMatchedSoftware};
}

/** Fold one decode step into the run's counters and ledger. */
void
countStep(const PipelineStepResult &r, DecodeLedger &ledger, Outcome &out)
{
    ++out.attempted;
    if (!r.deviceMatchedSoftware)
        ++out.failed;
    ++ledger.steps;
    ledger.stepFlushSum += r.tokensFlushed;
    ledger.minMass = std::min(ledger.minMass, r.minRetainedMass);
}

DecodeLedger
ledgerFor(const PipelineConfig &cfg, const DecodePipeline &p)
{
    DecodeLedger l;
    l.prompt = p.contextLength();
    l.window = cfg.hybrid.windowSize;
    l.granularity = cfg.flushGranularity;
    l.flushedAtPrompt = p.flushedTokens();
    l.headsPerToken = uint64_t{cfg.numLayers} * cfg.numKvHeads;
    return l;
}

void
closeLedger(DecodeLedger &l, const DecodePipeline &p, Outcome &out,
            const char *what)
{
    l.context = p.contextLength();
    l.flushed = p.flushedTokens();
    out.check(decodeLedgerHolds(l), what);
}

/**
 * Device top-k for one sampled (layer, KV head) of user `uid`: the
 * group's queries are stored keys plus noise, offloaded through the
 * real DCC/NMA path, and compared with the brute-force
 * concordance -> dot -> top-k over the stored keys, whose rotated sign
 * bits the check recomputes itself. Prints the per-query SCF survivor
 * fraction to stderr.
 */
void
checkDeviceTopK(const PipelineConfig &cfg, DrexDevice &dev, uint32_t uid,
                size_t flushed, Rng &rng, Outcome &out)
{
    const uint32_t d = cfg.headDim;
    const uint32_t G = cfg.numQueryHeads / cfg.numKvHeads;
    const auto l = static_cast<uint32_t>(rng.below(cfg.numLayers));
    const auto h = static_cast<uint32_t>(rng.below(cfg.numKvHeads));
    const size_t sinks = cfg.hybrid.sinkTokens;
    KvCache &ctx = dev.context(uid, l, h);
    const Matrix &K = ctx.keys();
    out.check(K.rows() == flushed, "device store holds the flushed prefix");
    if (K.rows() != flushed || flushed <= sinks)
        return;

    const size_t w = signWords(d);
    std::vector<uint64_t> key_signs(flushed * w);
    size_t ambiguous = 0;
    const SignMatrix &stored = ctx.filterSignsAll();
    for (size_t i = 0; i < flushed; ++i) {
        if (ctx.hasItqRotation())
            rotatedSignsRef(K.row(i), ctx.itqRotation().data(), d,
                            stored.row(i), key_signs.data() + i * w,
                            ambiguous);
        else
            packSignsRef(K.row(i), d, key_signs.data() + i * w);
    }

    // The device takes the filter-space queries the pipeline would
    // give it (toFilterSpace); the reference rotates the queries itself.
    Matrix qs(G, d), fqs(G, d);
    for (uint32_t g = 0; g < G; ++g) {
        const float *src = K.row(sinks + rng.below(flushed - sinks));
        std::vector<float> q(src, src + d);
        for (float &x : q)
            x += 0.25f * static_cast<float>(rng.gaussian());
        qs.setRow(g, q.data());
        ctx.toFilterSpace(q.data(), fqs.row(g));
    }
    OffloadSpec spec;
    spec.user = uid;
    spec.layer = l;
    spec.kvHead = h;
    spec.sparseBegin = sinks;
    spec.sparseEnd = flushed;
    spec.numQueries = G;
    spec.k = cfg.hybrid.topK;
    spec.threshold = cfg.hybrid.defaultThreshold;
    spec.cache = &ctx;
    spec.queries = &qs;
    spec.filterQueries = &fqs;
    AttentionRequest req;
    req.uid = uid;
    req.layer = l;
    req.headOffloads.push_back(spec);
    dev.submit(std::move(req));
    const auto responses = dev.processAll();
    const OffloadResult &res = responses.front().headResults.front();

    for (uint32_t g = 0; g < G; ++g) {
        std::vector<uint64_t> qsig(w);
        if (ctx.hasItqRotation()) {
            std::vector<uint64_t> given(w);
            packSignsRef(fqs.row(g), d, given.data());
            rotatedSignsRef(qs.row(g), ctx.itqRotation().data(), d,
                            given.data(), qsig.data(), ambiguous);
        } else {
            packSignsRef(qs.row(g), d, qsig.data());
        }
        TopkProblem p;
        p.keys = K.data();
        p.keySigns = key_signs.data();
        p.dim = d;
        p.begin = sinks;
        p.end = flushed;
        p.query = qs.row(g);
        p.querySigns = qsig.data();
        p.scale = 1.0f / std::sqrt(static_cast<float>(d));
        p.threshold = cfg.hybrid.defaultThreshold;
        p.k = cfg.hybrid.topK;
        size_t survivors = 0;
        const auto expected = bruteTopK(p, &survivors);
        std::vector<uint32_t> got;
        for (const ScoredIndex &s : res.topk[g])
            got.push_back(s.index);
        out.check(topkMatches(expected, got),
                  "device top-k equals brute-force SCF -> dot -> top-k");
        std::fprintf(stderr,
                     "topk check uid %u layer %u head %u query %u: "
                     "%zu/%zu survivors (%.4f), %zu ambiguous sign bits\n",
                     uid, l, h, g, survivors, flushed - sinks,
                     static_cast<double>(survivors) /
                         static_cast<double>(flushed - sinks),
                     ambiguous);
    }
}

/**
 * Prompt-pass outputs of two sampled (layer, KV head)s against the
 * recomputed block selection and a plain softmax over the attended
 * tokens; the head's attended and dense token counts against the
 * recomputed totals.
 */
void
checkPromptPass(const PipelineConfig &cfg, const DecodePipeline &pipe,
                size_t prompt, Outcome &out)
{
    const uint32_t d = cfg.headDim, H = cfg.numKvHeads;
    WorkloadConfig wcfg;
    wcfg.headDim = d;
    const size_t heads = size_t{cfg.numLayers} * H;
    PromptPassShape s;
    s.blockTokens = cfg.prefillSparsity.blockTokens;
    s.sinkTokens = cfg.prefillSparsity.sinkTokens;
    s.windowTokens = cfg.prefillSparsity.windowTokens;
    s.threshold = cfg.prefillSparsity.threshold;
    Rng rng(cfg.seed ^ 0x70a55ULL);
    for (int sample = 0; sample < 2; ++sample) {
        // A fresh bundle per sample: regenerating a workload that has
        // already generated would continue its RNG stream.
        const size_t idx = rng.below(heads);
        const auto l = static_cast<uint32_t>(idx / H);
        const auto h = static_cast<uint32_t>(idx % H);
        HeadWorkload wl = std::move(
            makeHeadWorkloads(wcfg, static_cast<uint32_t>(heads), cfg.seed)[idx]);
        wl.generate(prompt);
        const float *K = wl.keys().data();
        const float *V = wl.values().data();
        const PrefillStats &st = pipe.prefillAttentionHead(l, h).stats();
        out.check(promptCountsHold(st.attendedTokens, st.denseTokens, K, d,
                                   prompt, s),
                  "prompt pass attended tokens == recomputed selection, "
                  "denseTokens == P(P+1)/2");
        const Matrix &o = pipe.prefillAttentionOutput(l, h);
        for (int r = 0; r < 4; ++r) {
            const size_t row = prompt / 2 + rng.below(prompt / 2);
            const auto ref = softmaxRowRef(
                K + row * d, K, V, d, promptAttended(K, d, prompt, s, row),
                wl.attentionScale());
            out.check(rowMatches(ref, o.row(row)),
                      "prompt pass row equals softmax over recomputed "
                      "attended blocks");
        }
    }
}

void
addEndToEnd(Outcome &out, double setup_sec, double gen_tok_s,
            double prompt_tok_s, const std::vector<double> &ttft_sec,
            const std::vector<double> &gap_sec)
{
    out.add("setup_s", setup_sec, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("gen_tok_s", gen_tok_s, "tokens/s");
    out.add("prompt_tok_s", prompt_tok_s, "tokens/s");
    out.add("ttft_p50_ms", quantile(ttft_sec, 0.5) * 1e3, "ms");
    out.add("tbt_p50_ms", quantile(gap_sec, 0.5) * 1e3, "ms");
    if (gap_sec.size() >= kMinGapsForP90)
        out.add("tbt_p90_ms", quantile(gap_sec, 0.9) * 1e3, "ms");
}

/** Per-layer metrics every workload reports the same way. */
void
addReplay(Outcome &out, const PipelineConfig &cfg,
          const std::vector<LiveRequest> &live, double measured_step_sec,
          uint64_t prompt_seed, size_t prompt)
{
    const double replayed = replayDecodeStep(cfg, live, out);
    out.add("sim.replay_coverage", replayed / measured_step_sec, "ratio");
    replayPromptSide(cfg, prompt_seed, prompt, out);
    out.add("host.stream_gb_s", streamProbeGbs(), "GB/s");
}

} // namespace

// --------------------------------------------------------------------
// decode_long: one request, 8B attention shape, 32K context built in
// set-up, flat KV, W = k = 1024 with ITQ. Decode dominates.
// --------------------------------------------------------------------
Outcome
runDecodeLong(const Args &a)
{
    constexpr size_t kPrompt = 32768;
    constexpr int kWarmSteps = 2;
    Outcome out;
    ThreadPool::configureGlobal(kThreads);
    PipelineConfig cfg = shape(2, 128, 1024, 1024);
    cfg.trainItq = true;
    cfg.seed = mixSeed(a.seed, 0);
    DrexDevice dev(deviceFor(cfg));
    DecodePipeline pipe(cfg, dev, 0);
    double t = nowSec();
    pipe.prefill(kPrompt);
    const double prefill_sec = nowSec() - t;
    const double setup_sec = nowSec() - processStartSec();
    ++out.attempted;

    DecodeLedger ledger = ledgerFor(cfg, pipe);
    const auto step = [&] {
        const double t0 = nowSec();
        const PipelineStepResult r = pipe.decodeStep();
        const double dt = nowSec() - t0;
        countStep(r, ledger, out);
        return dt;
    };
    const double first_token_sec = step();
    for (int i = 0; i < kWarmSteps; ++i)
        step();
    Rng check_rng(mixSeed(a.seed, 1));
    checkDeviceTopK(cfg, dev, 0, pipe.flushedTokens(), check_rng, out);

    std::vector<double> steps;
    double timed = 0.0;
    while (timed < a.seconds || steps.size() < kMinGapsForP90) {
        steps.push_back(step());
        timed += steps.back();
    }
    checkDeviceTopK(cfg, dev, 0, pipe.flushedTokens(), check_rng, out);
    closeLedger(ledger, pipe, out, "decode_long context/flush ledger");

    if (!a.trace) {
        addEndToEnd(out, setup_sec, static_cast<double>(steps.size()) / timed,
                    kPrompt / prefill_sec, {prefill_sec + first_token_sec},
                    steps);
        return out;
    }
    out.add("sim.step_ms", quantile(steps, 0.5) * 1e3, "ms");
    out.add("sim.prefill_chunk_ms", prefill_sec * 1e3, "ms");
    out.add("core.pool_occupancy", 0.0, "ratio");
    out.add("drex.stored_mb", storedBytes(dev, 0, cfg) / 1048576.0, "MB");
    addReplay(out, cfg,
              {{&dev, 0, cfg.seed, pipe.contextLength(), pipe.flushedTokens()}},
              quantile(steps, 0.5), cfg.seed, 16384);
    return out;
}

// --------------------------------------------------------------------
// prefill_sparse: fresh single-request pipelines (1B attention shape,
// one layer), each ingesting a 16K prompt through monolithic prefill()
// with the block-sparse prompt pass on, then decoding a few tokens.
// --------------------------------------------------------------------
Outcome
runPrefillSparse(const Args &a)
{
    constexpr size_t kPrompt = 16384;
    constexpr int kDecode = 16;
    // Enough pipelines that the gaps support a p90.
    constexpr uint32_t kMinPipelines =
        (kMinGapsForP90 + kDecode - 2) / (kDecode - 1);
    Outcome out;
    ThreadPool::configureGlobal(kThreads);
    PipelineConfig cfg = shape(1, 64, 1024, 1024);
    cfg.prefillAttention = true;
    const DrexConfig dcfg = deviceFor(cfg);
    {
        // Warm-up: a short prompt through the same path.
        PipelineConfig warm = cfg;
        warm.seed = mixSeed(a.seed, 1u << 20);
        DrexDevice dev(dcfg);
        DecodePipeline p(warm, dev, 0);
        p.prefill(4096);
        p.decodeStep();
        p.decodeStep();
    }
    const double setup_sec = nowSec() - processStartSec();

    std::vector<double> ttft, gaps, prefill_sec, step_sec;
    double timed = 0.0;
    uint64_t prompt_tokens = 0, gen_tokens = 0;
    std::unique_ptr<DrexDevice> dev;
    std::unique_ptr<DecodePipeline> pipe;
    uint32_t uid = 0;
    for (; uid < kMinPipelines || timed < a.seconds; ++uid) {
        cfg.seed = mixSeed(a.seed, uid);
        pipe.reset();
        dev = std::make_unique<DrexDevice>(dcfg);
        pipe = std::make_unique<DecodePipeline>(cfg, *dev, uid);
        double t = nowSec();
        pipe->prefill(kPrompt);
        const double p = nowSec() - t;
        ++out.attempted;
        DecodeLedger ledger = ledgerFor(cfg, *pipe);
        for (int s = 0; s < kDecode; ++s) {
            t = nowSec();
            const PipelineStepResult r = pipe->decodeStep();
            const double dt = nowSec() - t;
            countStep(r, ledger, out);
            step_sec.push_back(dt);
            if (s == 0)
                ttft.push_back(p + dt);
            else
                gaps.push_back(dt);
            timed += dt;
        }
        timed += p;
        prefill_sec.push_back(p);
        std::fprintf(stderr, "pipeline %u: prefill %.4f s, block skip %.4f\n",
                     uid, p, pipe->prefillAttentionStats().blockSkipFraction());
        prompt_tokens += kPrompt;
        gen_tokens += kDecode;
        closeLedger(ledger, *pipe, out, "prefill_sparse decode ledger");
        if (uid == 0)
            checkPromptPass(cfg, *pipe, kPrompt, out);
    }

    if (!a.trace) {
        addEndToEnd(out, setup_sec, static_cast<double>(gen_tokens) / timed,
                    static_cast<double>(prompt_tokens) / timed, ttft, gaps);
        return out;
    }
    const uint32_t last = uid - 1;
    out.add("sim.step_ms", quantile(step_sec, 0.5) * 1e3, "ms");
    out.add("sim.prefill_chunk_ms", quantile(prefill_sec, 0.5) * 1e3, "ms");
    out.add("core.pool_occupancy", 0.0, "ratio");
    out.add("drex.stored_mb", storedBytes(*dev, last, cfg) / 1048576.0, "MB");
    addReplay(out, cfg,
              {{dev.get(), last, cfg.seed, pipe->contextLength(),
                pipe->flushedTokens()}},
              quantile(step_sec, 0.5), cfg.seed, kPrompt);
    return out;
}

// --------------------------------------------------------------------
// serve_chunked: closed loop of kSlots clients over paged pipelines
// (1B attention shape, two layers). Each step runs one
// decodeStepBatch over the decoding requests plus at most one
// prefillChunk; a finished request's slot takes the next request.
// --------------------------------------------------------------------
namespace {

constexpr uint32_t kSlots = 8;
constexpr uint64_t kChunk = 256;
/** Requests bound to one DrexDevice before the next device starts. */
constexpr uint32_t kDeviceRequests = 8;
constexpr uint64_t kPromptMin = 256, kPromptMax = 1024;
constexpr uint32_t kOutputMin = 16, kOutputMax = 96;

/** generateTraffic's own length distributions, clamped: appendToken
 *  makes chunked prompt ingestion quadratic (see README.md). */
TrafficConfig
deviceTraffic(uint64_t seed)
{
    TrafficConfig t;
    t.requests = kDeviceRequests;
    t.promptMin = kPromptMin;
    t.promptMax = kPromptMax;
    t.outputMin = kOutputMin;
    t.outputMax = kOutputMax;
    t.seed = seed;
    return t;
}

/** One device and the requests bound to it. It is dropped when the
 *  last of them finishes after the next device has started. */
struct Device
{
    Device(const DrexConfig &cfg, bool twins, uint64_t traffic_seed)
        : dev(cfg), twin(twins ? std::make_unique<DrexDevice>(cfg) : nullptr),
          traffic(generateTraffic(deviceTraffic(traffic_seed)))
    {}
    DrexDevice dev;
    std::unique_ptr<DrexDevice> twin; //!< for the twin pipelines, or null
    std::vector<ServingRequest> traffic;
    std::vector<uint32_t> uids;
};

struct Job
{
    std::shared_ptr<Device> device; //!< first: outlives the pipelines
    ServingRequest req;
    uint32_t uid = 0;
    std::unique_ptr<DecodePipeline> pipe;
    std::unique_ptr<DecodePipeline> twin; //!< sequential mirror, or null
    uint64_t prefilled = 0;
    uint32_t produced = 0;
    double joined = 0.0;
    double lastToken = 0.0;
};

struct ServeOptions
{
    /** Timed region length; 0 serves `requests` requests untimed. */
    double seconds = 0.0;
    uint32_t requests = 0;
    /** Mirror every fourth request on a twin pipeline. */
    bool twins = false;
    /** Replay one full step of the timed region layer by layer. */
    bool replay = false;
};

/** What one serving loop records. */
struct ServeLog
{
    std::vector<double> ttft, gaps, chunkSec, batchSec;
    std::vector<size_t> batchSize;
    std::vector<ServedRequest> served;
    double timedSec = 0.0;
    uint64_t genTokens = 0, promptTokens = 0;
    uint64_t timedSteps = 0, timedDecoding = 0;
    uint32_t requests = 0, promptClamped = 0, outputClamped = 0;
    double peakUsed = 0.0, occupancy = 0.0, storedMax = 0.0;
    double replayWall = 0.0;
    size_t replayBatch = 0;
};

double
deviceStoredBytes(Device &d, const PipelineConfig &cfg)
{
    double bytes = 0.0;
    for (uint32_t u : d.uids)
        bytes += storedBytes(d.dev, u, cfg);
    return bytes;
}

/**
 * One continuous serving loop. Requests are bound to the current
 * device, which is replaced every kDeviceRequests requests (each
 * device holds every request's contexts to its end and has 512
 * response buffers); a device is dropped once its last request is
 * done, so all kSlots slots stay busy across device boundaries.
 *
 * Timed (opt.seconds > 0): the region starts once kSlots requests
 * have finished, so the first cohort's simultaneous start is behind
 * it, and ends at the first step boundary after opt.seconds of wall
 * time (and at least kMinGapsForP90 gaps). Everything in it, request
 * admission and teardown included, is on the wall clock. Admission
 * then stops and the requests in flight are served to their end,
 * untimed. Untimed: opt.requests requests are served to their end.
 */
void
serve(const Args &a, const PipelineConfig &cfg, uint64_t stream,
      const ServeOptions &opt, uint32_t &next_uid, ServeLog &log,
      Outcome &out)
{
    const DrexConfig dcfg = deviceFor(cfg);
    const auto seed_of = [&](uint32_t uid) {
        return mixSeed(a.seed, (uint64_t{1} << 32) + uid);
    };
    const bool timed = opt.seconds > 0.0;
    std::shared_ptr<Device> device;
    uint64_t epoch = 0;
    size_t next_req = 0;
    uint32_t admitted = 0, finished = 0;
    double t_start = -1.0, t_end = -1.0;
    const auto in_region = [&](double t) {
        return t_start >= 0.0 && t_end < 0.0 && t >= t_start;
    };
    const auto retire = [&](Device &d) {
        log.storedMax = std::max(log.storedMax, deviceStoredBytes(d, cfg));
    };
    // A list: erasing a finished job destroys it in place, its
    // pipelines before the reference to their device.
    std::list<Job> active;
    std::vector<PipelineStepResult> results;
    bool admitting = true;
    while (admitting || !active.empty()) {
        if (timed && t_start < 0.0 && finished >= kSlots)
            t_start = nowSec();
        if (timed && t_start >= 0.0 && t_end < 0.0 &&
            nowSec() - t_start >= opt.seconds &&
            log.gaps.size() >= kMinGapsForP90) {
            t_end = nowSec();
            admitting = false;
        }
        while (admitting && active.size() < kSlots) {
            if (!timed && admitted == opt.requests) {
                admitting = false;
                break;
            }
            if (!device || next_req == device->traffic.size()) {
                if (device && device.use_count() == 1)
                    retire(*device);
                device = std::make_shared<Device>(
                    dcfg, opt.twins, mixSeed(a.seed, stream + epoch++));
                next_req = 0;
            }
            Job j;
            j.device = device;
            j.req = device->traffic[next_req++];
            j.uid = next_uid++;
            PipelineConfig c = cfg;
            c.seed = seed_of(j.uid);
            j.pipe = std::make_unique<DecodePipeline>(c, device->dev, j.uid);
            if (device->twin && j.uid % 4 == 0)
                j.twin = std::make_unique<DecodePipeline>(c, *device->twin,
                                                          j.uid);
            j.joined = nowSec();
            device->uids.push_back(j.uid);
            ++admitted;
            ++log.requests;
            log.promptClamped += j.req.promptLen == kPromptMin ||
                j.req.promptLen == kPromptMax;
            log.outputClamped += j.req.outputTokens == kOutputMin ||
                j.req.outputTokens == kOutputMax;
            active.push_back(std::move(j));
        }

        std::vector<DecodePipeline *> batch;
        std::vector<Job *> batch_jobs;
        Job *chunk_job = nullptr;
        for (Job &j : active) {
            if (j.prefilled == j.req.promptLen) {
                batch.push_back(j.pipe.get());
                batch_jobs.push_back(&j);
            } else if (!chunk_job) {
                chunk_job = &j;
            }
        }
        if (in_region(nowSec())) {
            ++log.timedSteps;
            log.timedDecoding += batch.size();
        }

        if (chunk_job) {
            const uint64_t n =
                std::min(kChunk, chunk_job->req.promptLen - chunk_job->prefilled);
            const double t = nowSec();
            chunk_job->pipe->prefillChunk(n);
            const double done = nowSec();
            log.chunkSec.push_back(done - t);
            if (in_region(done))
                log.promptTokens += n;
            chunk_job->prefilled += n;
            ++out.attempted;
            if (chunk_job->twin)
                chunk_job->twin->prefillChunk(n);
        }
        double done = 0.0;
        if (!batch.empty()) {
            const double t = nowSec();
            DecodePipeline::decodeStepBatch(batch, results);
            done = nowSec();
            log.batchSec.push_back(done - t);
            log.batchSize.push_back(batch.size());
        }

        for (size_t k = 0; k < batch_jobs.size(); ++k) {
            Job &j = *batch_jobs[k];
            ++out.attempted;
            if (!results[k].deviceMatchedSoftware)
                ++out.failed;
            out.check(results[k].minRetainedMass > 0.0 &&
                          results[k].minRetainedMass <= 1.0,
                      "serve_chunked retained mass in (0, 1]");
            if (in_region(done)) {
                ++log.genTokens;
                if (j.produced == 0 && j.joined >= t_start)
                    log.ttft.push_back(done - j.joined);
                else if (j.produced > 0 && j.lastToken >= t_start)
                    log.gaps.push_back(done - j.lastToken);
            }
            ++j.produced;
            j.lastToken = done;
            if (j.twin)
                out.check(verdictsIdentical(verdictOf(results[k]),
                                            verdictOf(j.twin->decodeStep())),
                          "decodeStepBatch verdict equals sequential "
                          "decodeStep on a twin pipeline");
        }

        double used = 0.0, reserved = 0.0;
        for (Job &j : active) {
            used += j.pipe->blockPool()->usedBlocks();
            reserved += j.pipe->blockPool()->numBlocks();
        }
        if (used > log.peakUsed) {
            log.peakUsed = used;
            log.occupancy = used / reserved;
        }

        if (opt.replay && log.replayBatch == 0 && in_region(done) &&
            batch.size() + 1 >= kSlots) {
            std::vector<LiveRequest> live;
            for (Job *j : batch_jobs)
                live.push_back({&j->device->dev, j->uid, seed_of(j->uid),
                                j->pipe->contextLength(),
                                j->pipe->flushedTokens()});
            log.replayWall = replayDecodeStep(cfg, live, out);
            log.replayBatch = batch.size();
        }

        for (auto it = active.begin(); it != active.end();) {
            if (it->produced == it->req.outputTokens) {
                log.served.push_back({it->req.promptLen, it->req.outputTokens,
                                      it->produced, it->pipe->contextLength()});
                ++finished;
                // The last request of a device that is no longer
                // admitting: the device goes with it.
                if (it->device.use_count() == 1)
                    retire(*it->device);
                it = active.erase(it);
            } else {
                ++it;
            }
        }
    }
    if (device)
        retire(*device);
    if (timed)
        log.timedSec = t_end - t_start;
}

} // namespace

Outcome
runServeChunked(const Args &a)
{
    Outcome out;
    ThreadPool::configureGlobal(kThreads);
    PipelineConfig cfg = shape(2, 64, 256, 256);
    cfg.pagedKv = true;
    cfg.pagedBlockTokens = 64;
    cfg.pagedMaxContext = kPromptMax + kOutputMax;
    {
        // Warm-up: one request alone, chunked, on a throwaway device.
        PipelineConfig warm = cfg;
        warm.seed = mixSeed(a.seed, 1u << 20);
        DrexDevice dev(deviceFor(cfg));
        DecodePipeline p(warm, dev, 0);
        p.prefillChunk(kChunk);
        p.prefillChunk(kChunk);
        for (int i = 0; i < 8; ++i)
            p.decodeStep();
    }
    const double setup_sec = nowSec() - processStartSec();

    uint32_t next_uid = 0;
    ServeLog log;
    ServeOptions timed;
    timed.seconds = a.seconds;
    timed.replay = a.trace;
    serve(a, cfg, 0, timed, next_uid, log, out);
    std::fprintf(stderr,
                 "serve_chunked: %u requests, %.3f of prompts and %.3f of "
                 "output budgets at a clamp bound; %.3f decoding requests "
                 "per timed step (of %u slots)\n",
                 log.requests,
                 static_cast<double>(log.promptClamped) / log.requests,
                 static_cast<double>(log.outputClamped) / log.requests,
                 static_cast<double>(log.timedDecoding) /
                     static_cast<double>(log.timedSteps),
                 kSlots);
    if (!a.trace)
        addEndToEnd(out, setup_sec,
                    static_cast<double>(log.genTokens) / log.timedSec,
                    static_cast<double>(log.promptTokens) / log.timedSec,
                    log.ttft, log.gaps);

    // The batch-vs-twin check serves two devices' worth of requests
    // after the metrics are taken, so the twins' memory never sets
    // peak_rss_mb.
    ServeLog twin_log;
    ServeOptions twins;
    twins.requests = 2 * kDeviceRequests;
    twins.twins = true;
    serve(a, cfg, uint64_t{1} << 22, twins, next_uid, twin_log, out);
    log.served.insert(log.served.end(), twin_log.served.begin(),
                      twin_log.served.end());
    out.check(budgetsMet(log.served), "every served request yields exactly "
                                      "its output budget");
    if (!a.trace)
        return out;

    std::vector<double> same_batch;
    for (size_t i = 0; i < log.batchSec.size(); ++i)
        if (log.batchSize[i] == log.replayBatch)
            same_batch.push_back(log.batchSec[i]);
    out.add("sim.step_ms", quantile(log.batchSec, 0.5) * 1e3, "ms");
    out.add("sim.prefill_chunk_ms", quantile(log.chunkSec, 0.5) * 1e3, "ms");
    out.add("core.pool_occupancy", log.occupancy, "ratio");
    out.add("drex.stored_mb", log.storedMax / 1048576.0, "MB");
    out.add("sim.replay_coverage", log.replayWall / quantile(same_batch, 0.5),
            "ratio");
    replayPromptSide(cfg, mixSeed(a.seed, 1u << 21), kPromptMax, out);
    out.add("host.stream_gb_s", streamProbeGbs(), "GB/s");
    return out;
}

} // namespace hostbench
