/**
 * @file
 * Shared pieces of the host benchmark: run arguments, the outcome a
 * workload reports, wall-clock helpers and the per-layer replay.
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/decode_pipeline.hh"

namespace hostbench {

/** Global thread-pool size, fixed for every workload and run. */
inline constexpr unsigned kThreads = 4;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 1.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. End-to-end metrics are filled with tracing
 *  off, per-layer metrics with tracing on. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a correctness check; a failed one marks the run wrong. */
    void check(bool ok, const std::string &what);
};

/** Steady-clock seconds. */
double nowSec();
/** Steady-clock seconds at process start (static initialisation). */
double processStartSec();
/** Process peak resident set (getrusage), MB. */
double peakRssMb();
/** Linear-interpolated quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> samples, double q);
/** Seed for the i-th derived stream of a run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t i);

/** Bytes a device holds for one user's contexts (K, V, sign rows). */
double storedBytes(longsight::DrexDevice &dev, uint32_t uid,
                   const longsight::PipelineConfig &cfg);

/** One request whose next decode step the replay re-times. */
struct LiveRequest
{
    longsight::DrexDevice *device = nullptr; //!< the device it is bound to
    uint32_t uid = 0;
    uint64_t seed = 0;    //!< its PipelineConfig::seed
    size_t context = 0;   //!< contextLength() before the step
    size_t flushed = 0;   //!< flushedTokens() before the step
};

/**
 * Re-time one decode step's layer calls for `live` (all sharing the
 * shape `cfg`) from outside the pipeline: fresh workloads regenerated
 * from each request's seed stand in for its private ones, GPU-side
 * caches rebuilt from them (paged with the pipeline's block size when
 * cfg.pagedKv is set) for its caches, and the device contexts are the
 * real ones. Phases are dispatched over the global thread pool the way
 * DecodePipeline dispatches them, and the attention and score-select
 * calls take the cache overloads the pipeline takes. Adds the
 * model/core/tensor/drex per-layer metrics and sim.oracle_share, and
 * returns the sum of the phase wall times: the replayed step, which
 * the caller divides by the measured one (sim.replay_coverage).
 */
double replayDecodeStep(const longsight::PipelineConfig &cfg,
                        const std::vector<LiveRequest> &live, Outcome &out);

/**
 * Re-time the prompt-side layer calls over the first `prompt` tokens
 * of head 0 of a pipeline seeded `seed`: the block-sparse pass, the
 * block-signature and multi-query scan kernels, and device context
 * writes. Adds core.prefill_*, tensor.sign_reduce/scan_multi and
 * drex.write_context metrics.
 */
void replayPromptSide(const longsight::PipelineConfig &cfg, uint64_t seed,
                      size_t prompt, Outcome &out);

/** memcpy bandwidth of this host measured in this process, GB/s. */
double streamProbeGbs();

Outcome runDecodeLong(const Args &args);
Outcome runPrefillSparse(const Args &args);
Outcome runServeChunked(const Args &args);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
