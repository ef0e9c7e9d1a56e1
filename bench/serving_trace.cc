/**
 * @file
 * Trace-driven serving comparison: a Poisson arrival trace of
 * long-context requests run through the continuous-batching scheduler
 * on top of the LongSight and 1-GPU system models. Extends Fig. 7's
 * steady-state points with the dynamic metrics an operator sees:
 * time-to-first-token, time-between-tokens, and makespan.
 *
 * A second, functional section steps a fleet of real DecodePipelines
 * (mixed context lengths, one per concurrent request) two ways: each
 * request alone via decodeStep(), and the whole batch through
 * DecodePipeline::decodeStepBatch, which groups every request's
 * queries by (layer, KV head) so each KV-cache pass serves a whole
 * GQA group. The two must produce identical step results — any
 * divergence exits nonzero — and the grouped pass's scan-amortization
 * accounting (KV-cache passes saved vs the one-pass-per-query-head
 * decode) lands in BENCH_batch.json.
 *
 * Run:  ./build/bench/serving_trace
 *       ./build/bench/serving_trace --requests 4 --steps 8 \
 *           --out BENCH_batch.json
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench/bench_util.hh"
#include "model/model_config.hh"
#include "sim/baseline_gpu.hh"
#include "sim/batch_scheduler.hh"
#include "sim/decode_pipeline.hh"
#include "sim/longsight_system.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace longsight {
namespace {

std::vector<ServingJob>
makeTrace(uint32_t n, uint64_t prompt, uint32_t out, Tick mean_gap,
          uint64_t seed)
{
    Rng rng(seed);
    std::vector<ServingJob> jobs;
    Tick at = 0;
    for (uint32_t i = 0; i < n; ++i) {
        jobs.push_back({i, at, prompt, out});
        at += static_cast<Tick>(-std::log(1.0 - rng.uniform()) *
                                static_cast<double>(mean_gap));
    }
    return jobs;
}

template <typename System>
EngineModel
engineFor(System &sys, const GpuModel &gpu, uint32_t max_batch)
{
    EngineModel e;
    e.prefillTime = [&gpu](uint64_t prompt) {
        return gpu.prefillTime(prompt);
    };
    e.stepTime = [&sys](const std::vector<uint64_t> &contexts) {
        uint64_t max_ctx = 0;
        for (uint64_t c : contexts)
            max_ctx = std::max(max_ctx, c);
        const ServingResult r = sys.decode(
            max_ctx, static_cast<uint32_t>(contexts.size()));
        return r.feasible ? r.stepTime : Tick(1) * kSecond;
    };
    e.maxBatch = max_batch;
    return e;
}

/** Outcome of the functional grouped-vs-sequential batch decode. */
struct BatchCompare
{
    uint32_t requests = 0;
    uint32_t steps = 0;
    std::vector<size_t> contexts;
    double sequentialSec = 0.0;
    double batchedSec = 0.0;
    GroupedScanStats stats;
    bool identical = true;
};

bool
sameStep(const PipelineStepResult &a, const PipelineStepResult &b)
{
    return a.offloadsIssued == b.offloadsIssued &&
        a.tokensFlushed == b.tokensFlushed &&
        a.minRetainedMass == b.minRetainedMass &&
        a.deviceMatchedSoftware == b.deviceMatchedSoftware;
}

/**
 * Step two identically-seeded pipeline fleets with mixed context
 * lengths: one request-at-a-time, one through the grouped batch step.
 * Results must match step for step; wall times and the grouped pass's
 * scan amortization are the payload.
 */
BatchCompare
runFunctionalBatch(uint32_t requests, uint32_t steps,
                   PipelineConfig cfg)
{
    BatchCompare bc;
    bc.requests = requests;
    bc.steps = steps;

    DrexConfig dcfg;
    dcfg.numKvHeads = cfg.numKvHeads;
    dcfg.numLayers = cfg.numLayers;
    dcfg.headDim = cfg.headDim;

    auto makeFleet = [&](DrexDevice &dev,
                         std::vector<std::unique_ptr<DecodePipeline>>
                             &fleet) {
        for (uint32_t i = 0; i < requests; ++i) {
            PipelineConfig c = cfg;
            c.seed = cfg.seed + i;
            fleet.push_back(
                std::make_unique<DecodePipeline>(c, dev, i));
            // Mixed context lengths straddling flush-group boundaries.
            fleet.back()->prefill(512 + 97 * i);
        }
    };
    DrexDevice dev_seq(dcfg), dev_batch(dcfg);
    std::vector<std::unique_ptr<DecodePipeline>> seq, batch;
    makeFleet(dev_seq, seq);
    makeFleet(dev_batch, batch);
    for (const auto &p : seq)
        bc.contexts.push_back(p->contextLength());

    std::vector<std::vector<PipelineStepResult>> seq_results(
        steps, std::vector<PipelineStepResult>(requests));
    auto t0 = std::chrono::steady_clock::now();
    for (uint32_t s = 0; s < steps; ++s)
        for (uint32_t i = 0; i < requests; ++i)
            seq_results[s][i] = seq[i]->decodeStep();
    bc.sequentialSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::vector<DecodePipeline *> ptrs;
    for (auto &p : batch)
        ptrs.push_back(p.get());
    std::vector<PipelineStepResult> step_results;
    t0 = std::chrono::steady_clock::now();
    for (uint32_t s = 0; s < steps; ++s) {
        bc.stats.merge(
            DecodePipeline::decodeStepBatch(ptrs, step_results));
        for (uint32_t i = 0; i < requests; ++i)
            if (!sameStep(step_results[i], seq_results[s][i])) {
                std::cerr << "FAIL: batched decode step " << s
                          << " diverged from the sequential decode for "
                             "request "
                          << i << "\n";
                bc.identical = false;
            }
    }
    bc.batchedSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return bc;
}

void
writeBatchJson(const std::string &path, const BatchCompare &bc,
               const PipelineConfig &cfg)
{
    std::ofstream os(path);
    LS_ASSERT(os.good(), "cannot write ", path);
    os << "{\n"
       << benchMeta("serving_batch",
                    {cfg.numQueryHeads, cfg.numKvHeads, cfg.headDim})
       << "  \"requests\": " << bc.requests << ",\n"
       << "  \"decode_steps\": " << bc.steps << ",\n"
       << "  \"contexts\": [";
    for (size_t i = 0; i < bc.contexts.size(); ++i)
        os << bc.contexts[i] << (i + 1 < bc.contexts.size() ? ", " : "");
    os << "],\n"
       << "  \"sequential_s\": " << bc.sequentialSec << ",\n"
       << "  \"batched_s\": " << bc.batchedSec << ",\n"
       << "  \"batched_speedup\": " << bc.sequentialSec / bc.batchedSec
       << ",\n"
       << "  \"grouped_items\": " << bc.stats.groupedItems << ",\n"
       << "  \"scan_passes\": " << bc.stats.scanPasses << ",\n"
       << "  \"ungrouped_equivalent_passes\": "
       << bc.stats.ungroupedEquivalent << ",\n"
       << "  \"scan_amortization\": " << bc.stats.amortization() << ",\n"
       << "  \"results_identical\": "
       << (bc.identical ? "true" : "false") << "\n}\n";
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    const auto requests =
        static_cast<uint32_t>(flags.getInt("requests", 4));
    const auto fsteps = static_cast<uint32_t>(flags.getInt("steps", 6));
    const std::string out =
        flags.getString("out", "BENCH_batch.json");
    flags.rejectUnknown();
    const auto model = ModelConfig::llama3_8b();
    const uint64_t prompt = 65536;
    GpuModel gpu_model(GpuConfig::h100(), model);

    LongSightSystem ls(LongSightSystemConfig{}, model);
    BaselineGpuSystem gpu(GpuConfig::h100(), model, 1);

    const auto trace =
        makeTrace(12, prompt, 256, 2 * kSecond, 77);

    TextTable t("Trace-driven serving: 12 x " + fmtTokens(prompt) +
                "-token prompts, 256 output tokens each (" + model.name +
                ")");
    t.setHeader({"System", "Batch cap", "Makespan [s]", "Throughput t/s",
                 "TTFT p-mean [ms]", "TBT mean [ms]"});

    {
        const uint32_t cap = std::min(ls.maxUsers(prompt + 64), 64u);
        const auto r = runBatchSchedule(
            trace, engineFor(ls, gpu_model, cap));
        t.addRow({"LongSight", std::to_string(cap),
                  TextTable::num(toSeconds(r.makespan), 2),
                  TextTable::num(r.throughputTokensPerSec, 1),
                  TextTable::num(r.ttftMs.mean(), 0),
                  TextTable::num(r.tbtMs.mean(), 1)});
    }
    {
        const uint32_t cap = std::max(gpu.maxUsers(prompt + 64), 1u);
        const auto r = runBatchSchedule(
            trace, engineFor(gpu, gpu_model, cap));
        t.addRow({"1-GPU dense", std::to_string(cap),
                  TextTable::num(toSeconds(r.makespan), 2),
                  TextTable::num(r.throughputTokensPerSec, 1),
                  TextTable::num(r.ttftMs.mean(), 0),
                  TextTable::num(r.tbtMs.mean(), 1)});
    }
    t.print(std::cout);
    std::cout << "Both systems pay identical (serialized) prefill costs — "
                 "LongSight does not\naccelerate prefill (§8.1.2) — so the "
                 "makespan gap is pure decode-phase\nadvantage: the dense "
                 "box can co-resident only a few contexts, while\n"
                 "LongSight decodes the whole admitted trace in parallel "
                 "at a slightly\nhigher per-token time.\n";

    // Functional grouped-vs-sequential batch decode on a small GQA
    // shape (group size 4, like the 8B Table-1 ratio).
    PipelineConfig pcfg;
    pcfg.numLayers = 2;
    pcfg.numQueryHeads = 8;
    pcfg.numKvHeads = 2;
    pcfg.headDim = 64;
    pcfg.hybrid.windowSize = 256;
    pcfg.hybrid.sinkTokens = 8;
    pcfg.hybrid.topK = 128;
    pcfg.hybrid.defaultThreshold =
        static_cast<int>(pcfg.headDim / 4);
    pcfg.seed = 7;
    const BatchCompare bc = runFunctionalBatch(requests, fsteps, pcfg);
    std::cout << "\nfunctional batch decode: " << bc.requests
              << " requests x " << bc.steps << " steps, grouped "
              << bc.stats.scanPasses << " scan passes vs "
              << bc.stats.ungroupedEquivalent
              << " ungrouped (amortization "
              << bc.stats.amortization() << "x, "
              << (bc.identical ? "results identical" : "DIVERGED")
              << ")\n";
    writeBatchJson(out, bc, pcfg);
    std::cout << "wrote " << out << "\n";
    return bc.identical ? 0 : 1;
}
