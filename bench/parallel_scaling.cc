/**
 * @file
 * Host-parallelism scaling bench: end-to-end functional decode
 * pipeline throughput (prefill + decode steps) versus `--threads`, at
 * 8k and 32k contexts for the Table-1 model shapes. Emits
 * BENCH_parallel.json with tokens/sec per (model, context, thread
 * count) plus a bit-identity verdict: every thread count must produce
 * exactly the same attention verification results and filter
 * statistics as the serial run (the parallel execution layer's
 * determinism contract).
 *
 * Speedup is relative to --threads 1 and is only meaningful on a
 * multi-core host; the JSON records hardware_threads so a single-core
 * CI container's ~1x numbers are self-explaining.
 *
 * Run:  ./build/bench/parallel_scaling
 *       ./build/bench/parallel_scaling --model 8b --contexts 32768 \
 *           --threads 1,8 --steps 2
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "model/model_config.hh"
#include "sim/decode_pipeline.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::vector<uint64_t>
parseList(const std::string &csv)
{
    std::vector<uint64_t> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(std::stoull(item));
    LS_ASSERT(!out.empty(), "empty list '", csv, "'");
    return out;
}

/** What one (model, context, threads) run produced. */
struct RunResult
{
    double prefillSec = 0.0;
    double decodeSec = 0.0;
    std::vector<PipelineStepResult> steps;
    uint64_t flushed = 0;
};

/** The cross-thread-count identity check covers every step verdict. */
bool
identical(const RunResult &a, const RunResult &b)
{
    if (a.flushed != b.flushed || a.steps.size() != b.steps.size())
        return false;
    for (size_t i = 0; i < a.steps.size(); ++i) {
        const auto &x = a.steps[i];
        const auto &y = b.steps[i];
        if (x.offloadsIssued != y.offloadsIssued ||
            x.tokensFlushed != y.tokensFlushed ||
            x.deviceMatchedSoftware != y.deviceMatchedSoftware ||
            x.minRetainedMass != y.minRetainedMass)
            return false;
    }
    return true;
}

RunResult
runOnce(const ModelConfig &model, uint64_t context, unsigned threads,
        uint32_t steps, bool train_itq)
{
    ThreadPool::configureGlobal(threads);

    DrexConfig dcfg;
    dcfg.numKvHeads = model.numKvHeads;
    dcfg.numLayers = model.numLayers;
    dcfg.headDim = model.headDim;
    DrexDevice dev(dcfg);

    PipelineConfig cfg;
    cfg.numLayers = model.numLayers;
    cfg.numQueryHeads = model.numQueryHeads;
    cfg.numKvHeads = model.numKvHeads;
    cfg.headDim = model.headDim;
    cfg.hybrid.windowSize = 1024;
    cfg.hybrid.sinkTokens = 16;
    cfg.hybrid.topK = 1024;
    cfg.hybrid.defaultThreshold = static_cast<int>(model.headDim / 4);
    cfg.trainItq = train_itq;
    cfg.seed = 7;
    DecodePipeline pipe(cfg, dev, 0);

    RunResult r;
    auto t0 = std::chrono::steady_clock::now();
    pipe.prefill(context);
    r.prefillSec = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    for (uint32_t s = 0; s < steps; ++s)
        r.steps.push_back(pipe.decodeStep());
    r.decodeSec = secondsSince(t0);
    r.flushed = pipe.flushedTokens();
    return r;
}

struct Row
{
    std::string model;
    uint64_t context;
    unsigned threads;
    RunResult run;
    double speedup;
    bool bitIdentical;
};

void
writeJson(const std::string &path, const std::vector<Row> &rows,
          uint32_t steps)
{
    std::ofstream os(path);
    LS_ASSERT(os.good(), "cannot write ", path);
    // benchMeta's thread count reflects the last configured pool; the
    // per-row "threads" field is the one that varies by design.
    os << "{\n" << benchMeta("parallel_scaling")
       << "  \"hardware_threads\": " << ThreadPool::hardwareThreads()
       << ",\n  \"decode_steps\": " << steps << ",\n  \"results\": [\n";
    // A multi-thread row on a single-core host measures scheduling
    // contention, not scaling; tag it so downstream tooling can drop
    // it instead of reading the ~1x "speedup" as a regression. The
    // bit-identity verdicts stay meaningful (and enforced) regardless.
    const bool single_core = ThreadPool::hardwareThreads() == 1;
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const double total = r.run.prefillSec + r.run.decodeSec;
        os << "    {\"model\": \"" << r.model << "\", \"context\": "
           << r.context << ", \"threads\": " << r.threads
           << ", \"oversubscribed\": "
           << (single_core && r.threads > 1 ? "true" : "false")
           << ", \"prefill_s\": " << r.run.prefillSec
           << ", \"decode_s\": " << r.run.decodeSec
           << ", \"prefill_tok_per_s\": "
           << static_cast<double>(r.context) / r.run.prefillSec
           << ", \"decode_tok_per_s\": "
           << static_cast<double>(steps) / r.run.decodeSec
           << ", \"total_s\": " << total << ", \"speedup_vs_1\": "
           << r.speedup << ", \"bit_identical\": "
           << (r.bitIdentical ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    Flags flags(argc, argv);
    const std::string model_sel = flags.getString("model", "both");
    const auto contexts =
        parseList(flags.getString("contexts", "8192,32768"));
    const auto thread_list =
        parseList(flags.getString("threads", "1,2,4,8"));
    const auto steps =
        static_cast<uint32_t>(flags.getInt("steps", 2));
    const bool train_itq = flags.getBool("itq", false);
    const std::string out =
        flags.getString("out", "BENCH_parallel.json");
    flags.rejectUnknown();

    std::vector<ModelConfig> models;
    if (model_sel == "1b" || model_sel == "both")
        models.push_back(ModelConfig::llama3_1b());
    if (model_sel == "8b" || model_sel == "both")
        models.push_back(ModelConfig::llama3_8b());
    LS_ASSERT(!models.empty(), "unknown --model '", model_sel,
              "' (use 1b, 8b, or both)");

    std::vector<Row> rows;
    for (const auto &model : models) {
        for (uint64_t ctx : contexts) {
            TextTable t("parallel scaling: " + model.name + ", " +
                        fmtTokens(ctx) + " ctx, " +
                        std::to_string(steps) + " decode steps");
            t.setHeader({"Threads", "Prefill [s]", "Decode [s]",
                         "Prefill tok/s", "Speedup", "BitIdentical"});
            RunResult ref;
            bool have_ref = false;
            double ref_total = 0.0;
            for (unsigned threads : thread_list) {
                Row row;
                row.model = model.name;
                row.context = ctx;
                row.threads = threads;
                row.run = runOnce(model, ctx, threads, steps, train_itq);
                const double total =
                    row.run.prefillSec + row.run.decodeSec;
                if (!have_ref) {
                    row.speedup = 1.0;
                    row.bitIdentical = true;
                    ref = row.run;
                    ref_total = total;
                    have_ref = true;
                } else {
                    row.speedup = ref_total / total;
                    row.bitIdentical = identical(ref, row.run);
                }
                rows.push_back(row);
                const Row &r = rows.back();
                t.addRow({std::to_string(threads),
                          TextTable::num(r.run.prefillSec, 2),
                          TextTable::num(r.run.decodeSec, 2),
                          TextTable::num(static_cast<double>(ctx) /
                                             r.run.prefillSec,
                                         0),
                          TextTable::num(r.speedup, 2),
                          r.bitIdentical ? "yes" : "NO"});
            }
            t.print(std::cout);
        }
    }

    writeJson(out, rows, steps);
    std::cout << "wrote " << out << "\n";
    if (ThreadPool::hardwareThreads() == 1)
        std::cout << "note: single-core host; speedups are expected "
                     "to be ~1x here and only meaningful on "
                     "multi-core hardware\n";

    for (const Row &r : rows)
        if (!r.bitIdentical) {
            std::cerr << "FAIL: thread count " << r.threads
                      << " diverged from the serial run\n";
            return 1;
        }
    return 0;
}
