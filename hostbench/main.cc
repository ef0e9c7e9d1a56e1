/**
 * @file
 * Host benchmark entry point: runs one named workload for a seed and
 * a run length, and prints one JSON object as the last line of
 * standard output: correctness verdict, operations attempted and
 * failed, and every metric with its unit (end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1).
 *
 * Run:  python3 hostbench/run.py --workload decode_long --seed 1 \
 *           --seconds 30 --trace 0
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

namespace hostbench {

namespace {
const double kProcessStart = nowSec();
} // namespace

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processStartSec()
{
    return kProcessStart;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
quantile(std::vector<double> s, double q)
{
    if (s.empty())
        return 0.0;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

uint64_t
mixSeed(uint64_t seed, uint64_t i)
{
    // splitmix64 finaliser over (seed, i).
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
storedBytes(longsight::DrexDevice &dev, uint32_t uid,
            const longsight::PipelineConfig &cfg)
{
    double bytes = 0.0;
    for (uint32_t l = 0; l < cfg.numLayers; ++l)
        for (uint32_t h = 0; h < cfg.numKvHeads; ++h) {
            if (!dev.hasContext(uid, l, h))
                continue;
            const longsight::KvCache &c = dev.context(uid, l, h);
            const double words = static_cast<double>(
                c.filterSignsStorage().wordsPerRow());
            const double signs = c.hasItqRotation() ? 2.0 : 1.0;
            bytes += static_cast<double>(c.size()) *
                (2.0 * c.headDim() * sizeof(float) + signs * words * 8.0);
        }
    return bytes;
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: hostbench --workload "
                 "<decode_long|prefill_sparse|serve_chunked> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0.0 && a.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            a.trace = std::strtol(v, &end, 10) != 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

void
printJson(const Outcome &o)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (size_t i = 0; i < o.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", o.metrics[i].name.c_str(),
                    o.metrics[i].value, o.metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    const Args args = parseArgs(argc, argv);
    Outcome out;
    if (args.workload == "decode_long")
        out = runDecodeLong(args);
    else if (args.workload == "prefill_sparse")
        out = runPrefillSparse(args);
    else if (args.workload == "serve_chunked")
        out = runServeChunked(args);
    else
        usage(("unknown workload " + args.workload).c_str());
    printJson(out);
    return 0;
}
