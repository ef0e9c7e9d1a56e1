/**
 * @file
 * SLO-aware serving-engine bench: open-loop Poisson and diurnal
 * arrival traces of heavy-tailed long-context requests served by the
 * continuous-batching ServingEngine (chunked prefill, block-budget
 * admission, priority preemption) over the LongSight system model.
 * Reports the operator-facing metrics of §4's rate/SLO discussion:
 * p50/p99 time-to-first-token and time-between-tokens against the
 * configured SLO targets, goodput (tokens of SLO-attained requests
 * per second), and the schedule counters (preemptions, prefill
 * chunks, restores, admission holds).
 *
 * The engine is deterministic by contract: every scenario runs twice
 * and the run exits nonzero if any metric differs bit-for-bit, or if
 * peak block usage ever exceeds the ledger budget. That makes the
 * emitted BENCH_serving.json stable across machines and thread
 * counts, so ci/check-bench.sh can diff it against a checked-in
 * baseline with tight tolerances.
 *
 * Run:  ./build/bench/serving_engine
 *       ./build/bench/serving_engine --requests 600 --seed 1 \
 *           --out BENCH_serving.json
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "drex/partition_manager.hh"
#include "gpu/gpu_model.hh"
#include "model/model_config.hh"
#include "model/traffic.hh"
#include "sim/longsight_system.hh"
#include "sim/serving_engine.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace longsight {
namespace {

Tick
fromSecondsTick(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kSecond));
}

/**
 * Deterministic cost model over the LongSight system model. Decode
 * steps are priced by the steady-state simulator at (context bucket,
 * users) granularity and memoized — the detailed device simulation
 * runs once per distinct operating point, not once per engine step.
 * When the batch exceeds the system's feasible user count at a
 * context, the step serializes into ceil(users / feasible)
 * sub-batches, the way a scheduler splits an oversized iteration.
 */
struct LongSightCosts
{
    const LongSightSystem &ls;
    const GpuModel &gpu;
    uint64_t kvBytesPerToken = 0;
    double cxlGBps = 56.0;
    uint64_t contextBucket = 4096;
    mutable std::map<std::pair<uint64_t, uint32_t>, Tick> memo;

    Tick decodeStep(const std::vector<uint64_t> &contexts) const
    {
        uint64_t max_ctx = 1;
        for (uint64_t c : contexts)
            max_ctx = std::max(max_ctx, c);
        const uint64_t bucket =
            (max_ctx + contextBucket - 1) / contextBucket *
            contextBucket;
        const auto users = static_cast<uint32_t>(contexts.size());
        const uint32_t feasible =
            std::max(1u, std::min(users, ls.maxUsers(bucket)));
        const auto key = std::make_pair(bucket, feasible);
        auto it = memo.find(key);
        if (it == memo.end()) {
            const ServingResult r = ls.decode(bucket, feasible);
            LS_ASSERT(r.feasible, "decode infeasible at bucket ",
                      bucket, " users ", feasible);
            it = memo.emplace(key, r.stepTime).first;
        }
        const uint64_t sub_batches = (users + feasible - 1) / feasible;
        return it->second * sub_batches;
    }

    Tick prefillChunk(uint64_t chunk, uint64_t done) const
    {
        // Incremental roofline cost of extending the prefix: the
        // chunk's attention runs against everything already resident.
        return gpu.prefillTime(done + chunk) - gpu.prefillTime(done);
    }

    Tick restore(uint64_t context_tokens) const
    {
        // Bulk CXL read of the retained prefix from the expander tier.
        const double bytes = static_cast<double>(context_tokens) *
            static_cast<double>(kvBytesPerToken);
        return fromSecondsTick(bytes / (cxlGBps * 1e9));
    }

    ServingCostModel model() const
    {
        ServingCostModel m;
        m.decodeStepTime = [this](const std::vector<uint64_t> &c) {
            return decodeStep(c);
        };
        m.prefillChunkTime = [this](uint64_t chunk, uint64_t done) {
            return prefillChunk(chunk, done);
        };
        m.restoreTime = [this](uint64_t ctx) { return restore(ctx); };
        return m;
    }
};

/** The metrics a scenario contributes to BENCH_serving.json. */
struct ScenarioRow
{
    std::string name;
    uint32_t requests = 0;
    double makespanS = 0.0;
    double throughput = 0.0;
    double goodput = 0.0;
    double sloAttainment = 0.0;
    double ttftP50 = 0.0, ttftP99 = 0.0, ttftOverflow = 0.0;
    double tbtP50 = 0.0, tbtP99 = 0.0, tbtOverflow = 0.0;
    uint64_t totalTokens = 0;
    uint64_t prefillChunks = 0;
    uint64_t preemptions = 0;
    uint64_t restores = 0;
    uint64_t gateHolds = 0;
    uint32_t peakActive = 0;
    uint64_t peakBlocks = 0;
    uint64_t blockBudget = 0;
    bool deterministic = true;
    bool budgetRespected = true;

    static ScenarioRow from(const std::string &name,
                            const ServingEngineResult &r)
    {
        ScenarioRow s;
        s.name = name;
        s.requests = static_cast<uint32_t>(r.requests.size());
        s.makespanS = toSeconds(r.makespan);
        s.throughput = r.throughputTokensPerSec;
        s.goodput = r.goodputTokensPerSec;
        s.sloAttainment = r.sloAttainment;
        s.ttftP50 = r.ttftP50Ms;
        s.ttftP99 = r.ttftP99Ms;
        s.ttftOverflow = r.ttftOverflow;
        s.tbtP50 = r.tbtP50Ms;
        s.tbtP99 = r.tbtP99Ms;
        s.tbtOverflow = r.tbtOverflow;
        s.totalTokens = r.totalTokens;
        s.prefillChunks = r.prefillChunks;
        s.preemptions = r.preemptions;
        s.restores = r.restores;
        s.gateHolds = r.gateHolds;
        s.peakActive = r.peakActive;
        s.peakBlocks = r.peakBlocks;
        s.blockBudget = r.blockBudget;
        s.budgetRespected = r.peakBlocks <= r.blockBudget;
        return s;
    }

    bool sameMetrics(const ScenarioRow &o) const
    {
        return requests == o.requests && makespanS == o.makespanS &&
            throughput == o.throughput && goodput == o.goodput &&
            sloAttainment == o.sloAttainment && ttftP50 == o.ttftP50 &&
            ttftP99 == o.ttftP99 && tbtP50 == o.tbtP50 &&
            tbtP99 == o.tbtP99 && totalTokens == o.totalTokens &&
            prefillChunks == o.prefillChunks &&
            preemptions == o.preemptions && restores == o.restores &&
            gateHolds == o.gateHolds && peakBlocks == o.peakBlocks;
    }
};

void
writeScenario(std::ofstream &os, const ScenarioRow &s, bool last)
{
    os << "  \"" << s.name << "\": {\n"
       << "    \"requests\": " << s.requests << ",\n"
       << "    \"makespan_s\": " << s.makespanS << ",\n"
       << "    \"throughput_tokens_per_s\": " << s.throughput << ",\n"
       << "    \"goodput_tokens_per_s\": " << s.goodput << ",\n"
       << "    \"slo_attainment\": " << s.sloAttainment << ",\n"
       << "    \"ttft_p50_ms\": " << s.ttftP50 << ",\n"
       << "    \"ttft_p99_ms\": " << s.ttftP99 << ",\n"
       << "    \"ttft_overflow_frac\": " << s.ttftOverflow << ",\n"
       << "    \"tbt_p50_ms\": " << s.tbtP50 << ",\n"
       << "    \"tbt_p99_ms\": " << s.tbtP99 << ",\n"
       << "    \"tbt_overflow_frac\": " << s.tbtOverflow << ",\n"
       << "    \"total_tokens\": " << s.totalTokens << ",\n"
       << "    \"prefill_chunks\": " << s.prefillChunks << ",\n"
       << "    \"preemptions\": " << s.preemptions << ",\n"
       << "    \"restores\": " << s.restores << ",\n"
       << "    \"gate_holds\": " << s.gateHolds << ",\n"
       << "    \"peak_active\": " << s.peakActive << ",\n"
       << "    \"peak_blocks\": " << s.peakBlocks << ",\n"
       << "    \"block_budget\": " << s.blockBudget << ",\n"
       << "    \"deterministic\": "
       << (s.deterministic ? "true" : "false") << "\n"
       << "  }" << (last ? "\n" : ",\n");
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    const auto requests =
        static_cast<uint32_t>(flags.getInt("requests", 2000));
    const auto seed = static_cast<uint64_t>(flags.getInt("seed", 1));
    const double rate = flags.getDouble("rate", 2.0);
    const auto chunk =
        static_cast<uint32_t>(flags.getInt("chunk", 2048));
    const auto budgetDiv =
        static_cast<uint64_t>(flags.getInt("budget-div", 64));
    const double ttftSlo = flags.getDouble("ttft-slo-ms", 2000.0);
    const double tbtSlo = flags.getDouble("tbt-slo-ms", 150.0);
    const std::string out =
        flags.getString("out", "BENCH_serving.json");
    flags.rejectUnknown();

    const auto model = ModelConfig::llama3_8b();
    LongSightSystem ls(LongSightSystemConfig{}, model);
    GpuModel gpu(GpuConfig::h100(), model);

    LongSightCosts costs{ls, gpu};
    costs.kvBytesPerToken = 2ull * model.numLayers * model.numKvHeads *
        model.headDim * 2ull; // K+V, fp16
    costs.cxlGBps = ls.config().cxl.bandwidthGBps;

    // Block budget: one serving replica's slice of the DReX device
    // (the full expander admits ~1800 median requests, far beyond one
    // engine's batch; a slice keeps the admission gate honest against
    // the heavy tail). The slice must still fit the largest request.
    const DataLayout layout(DrexGeometry{}, LpddrTimings{},
                            model.numKvHeads, model.numLayers,
                            model.headDim);
    PartitionManager pm(layout, model.numKvHeads, model.numLayers);
    constexpr uint32_t kBlockTokens = 128;
    const uint64_t deviceBudget = pm.blockBudget(kBlockTokens);

    TrafficConfig traffic;
    traffic.requests = requests;
    traffic.arrivalsPerSec = rate;
    traffic.seed = seed;
    traffic.promptLogSigma = 1.3; // fatter tail than the default
    traffic.promptMax = 32768;
    traffic.outputMax = 1024;

    const uint64_t maxRequestTokens =
        traffic.promptMax + traffic.outputMax;
    BlockLedger sizing(1, kBlockTokens, model.numKvHeads);
    const uint64_t sliceBudget =
        std::max(deviceBudget / budgetDiv,
                 sizing.blocksFor(maxRequestTokens));

    ServingEngineConfig ecfg;
    ecfg.maxBatch = 64;
    ecfg.prefillChunkTokens = chunk;
    ecfg.slo.ttftMs = ttftSlo;
    ecfg.slo.tbtMs = tbtSlo;

    const ServingCostModel cost = costs.model();

    const auto serve = [&](ArrivalProcess process,
                           const ServingEngineConfig &cfg) {
        TrafficConfig t = traffic;
        t.process = process;
        BlockLedger ledger(sliceBudget, kBlockTokens,
                           model.numKvHeads);
        ServingEngine engine(cfg, cost, &ledger);
        return engine.run(generateTraffic(t));
    };

    bool ok = true;
    std::vector<ScenarioRow> rows;
    for (const auto &[name, process] :
         {std::pair<std::string, ArrivalProcess>{
              "poisson", ArrivalProcess::Poisson},
          {"diurnal", ArrivalProcess::Diurnal}}) {
        ScenarioRow row =
            ScenarioRow::from(name, serve(process, ecfg));
        // Determinism gate: the same trace served again must
        // reproduce every metric bit-for-bit.
        const ScenarioRow again =
            ScenarioRow::from(name, serve(process, ecfg));
        row.deterministic = row.sameMetrics(again);
        if (!row.deterministic) {
            std::cerr << "FAIL: scenario " << name
                      << " is not deterministic across runs\n";
            ok = false;
        }
        if (!row.budgetRespected) {
            std::cerr << "FAIL: scenario " << name
                      << " exceeded the block budget (peak "
                      << row.peakBlocks << " > " << row.blockBudget
                      << ")\n";
            ok = false;
        }
        if (row.requests != requests) {
            std::cerr << "FAIL: scenario " << name << " completed "
                      << row.requests << " of " << requests
                      << " requests\n";
            ok = false;
        }
        rows.push_back(row);
    }

    // Chunked-vs-monolithic prefill, stdout only: the engine property
    // the chunk quantum buys is a bounded decode TBT tail while long
    // prompts prefill.
    ServingEngineConfig mono = ecfg;
    mono.prefillChunkTokens = 0;
    const ScenarioRow monoRow = ScenarioRow::from(
        "poisson_monolithic", serve(ArrivalProcess::Poisson, mono));

    TextTable t("SLO-aware serving engine: " + std::to_string(requests) +
                " requests, " + model.name + ", SLO ttft<" +
                TextTable::num(ttftSlo, 0) + "ms tbt<" +
                TextTable::num(tbtSlo, 0) + "ms");
    t.setHeader({"Scenario", "Goodput t/s", "SLO att.", "TTFT p99 [ms]",
                 "TBT p99 [ms]", "Preempt", "Gate holds"});
    for (const auto &r : rows)
        t.addRow({r.name, TextTable::num(r.goodput, 1),
                  TextTable::num(r.sloAttainment, 3),
                  TextTable::num(r.ttftP99, 0),
                  TextTable::num(r.tbtP99, 1),
                  std::to_string(r.preemptions),
                  std::to_string(r.gateHolds)});
    t.addRow({monoRow.name, TextTable::num(monoRow.goodput, 1),
              TextTable::num(monoRow.sloAttainment, 3),
              TextTable::num(monoRow.ttftP99, 0),
              TextTable::num(monoRow.tbtP99, 1),
              std::to_string(monoRow.preemptions),
              std::to_string(monoRow.gateHolds)});
    t.print(std::cout);
    std::cout << "chunked prefill holds the decode-TBT tail at "
              << TextTable::num(rows[0].tbtP99, 1) << " ms vs "
              << TextTable::num(monoRow.tbtP99, 1)
              << " ms monolithic (p99, Poisson trace)\n";

    std::ofstream os(out);
    LS_ASSERT(os.good(), "cannot write ", out);
    os << "{\n"
       << benchMeta("serving_engine",
                    {model.numQueryHeads, model.numKvHeads,
                     model.headDim})
       << "  \"requests\": " << requests << ",\n"
       << "  \"arrivals_per_sec\": " << rate << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"prefill_chunk_tokens\": " << chunk << ",\n"
       << "  \"max_batch\": " << ecfg.maxBatch << ",\n"
       << "  \"ttft_slo_ms\": " << ttftSlo << ",\n"
       << "  \"tbt_slo_ms\": " << tbtSlo << ",\n"
       << "  \"block_budget\": " << sliceBudget << ",\n";
    for (size_t i = 0; i < rows.size(); ++i)
        writeScenario(os, rows[i], i + 1 == rows.size());
    os << "}\n";
    std::cout << (ok ? "PASS" : "FAIL") << ": wrote " << out << "\n";
    return ok ? 0 : 1;
}
