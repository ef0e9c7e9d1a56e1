/**
 * @file
 * google-benchmark micro-kernels for LongSight's hot paths: sign
 * concordance, SCF filtering, top-k maintenance, ITQ training steps,
 * PFU block filtering, DRAM channel streaming, striped package reads,
 * CXL transfers, softmax, and the dense-attention reference kernel.
 *
 * After the google benchmarks, a scalar-vs-SIMD comparison pass times
 * the batch scan, survivor-scoring, fused scan->score->select (one
 * query, and a four-query GQA group per pass: batchScanMulti /
 * batchScoreSelectMultiSpans), and INT8 quantized-scoring (quant_dot,
 * int8_dot, fused int8_score_select — scalar / AVX2 maddubs / AVX-512
 * VNNI) kernels on every backend this host supports, verifies the
 * results are bit-identical to the scalar backend (the fused kernel
 * against the unfused scan + dot + topkSelect pipeline, and every
 * grouped output against the scalar one-query result for the same
 * query), and writes BENCH_kernels.json. Exits nonzero
 * if any backend's survivor set, score vector, fused top-k, or
 * grouped per-query result differs from scalar — this is the
 * bit-identity gate CI's bench-smoke job enforces.
 *
 * Run:  ./build/bench/micro_kernels
 *       ./build/bench/micro_kernels --keys 4096 --reps 3 \
 *           --benchmark_filter=BM_Batch --out BENCH_kernels.json
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/attention.hh"
#include "core/itq.hh"
#include "core/scf.hh"
#include "core/topk.hh"
#include "cxl/link.hh"
#include "dram/package.hh"
#include "drex/pfu.hh"
#include "tensor/kernels.hh"
#include "tensor/quantized.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/softmax.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

void
BM_SignConcordance(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    Rng rng(1);
    const auto a = rng.gaussianVec(d);
    const auto b = rng.gaussianVec(d);
    const SignBits sa(a.data(), d), sb(b.data(), d);
    for (auto _ : state)
        benchmark::DoNotOptimize(sa.concordance(sb));
}
BENCHMARK(BM_SignConcordance)->Arg(64)->Arg(128);

void
BM_ScfFilter4K(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    const size_t n = 4096;
    Rng rng(2);
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto signs = packSignRows(keys.data(), n, d);
    const auto q = rng.gaussianVec(d);
    const SignBits qs(q.data(), d);
    for (auto _ : state) {
        auto survivors = scfFilter(qs, signs, static_cast<int>(d) / 2);
        benchmark::DoNotOptimize(survivors);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScfFilter4K)->Arg(64)->Arg(128);

void
BM_TopKStream(benchmark::State &state)
{
    const size_t n = 65536;
    Rng rng(3);
    std::vector<float> scores(n);
    for (auto &s : scores)
        s = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        TopK acc(static_cast<size_t>(state.range(0)));
        for (size_t i = 0; i < n; ++i)
            acc.push(scores[i], static_cast<uint32_t>(i));
        benchmark::DoNotOptimize(acc.size());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKStream)->Arg(128)->Arg(1024);

void
BM_ItqIteration(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    Rng rng(4);
    const Matrix data(1024, d, rng.gaussianVec(1024 * d));
    for (auto _ : state) {
        Rng local(5);
        benchmark::DoNotOptimize(trainItqRotation(data, 1, local));
    }
}
BENCHMARK(BM_ItqIteration)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void
BM_PfuFilterBlock(benchmark::State &state)
{
    const size_t d = 128;
    Rng rng(6);
    const Matrix keys(128, d, rng.gaussianVec(128 * d));
    const auto signs = packSignRows(keys.data(), 128, d);
    const auto q = rng.gaussianVec(d);
    const std::vector<SignBits> qs = {SignBits(q.data(), d)};
    for (auto _ : state) {
        auto bm = Pfu::filterBlock(qs, signs.data(), 128, 64);
        benchmark::DoNotOptimize(bm);
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PfuFilterBlock);

void
BM_DramStreamingReads(benchmark::State &state)
{
    const LpddrTimings t;
    for (auto _ : state) {
        DramChannel ch(t);
        Tick done = 0;
        for (uint32_t i = 0; i < 1024; ++i)
            done = ch.read(0, i % t.banksPerChannel, i / 64, 256);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DramStreamingReads);

void
BM_PackageStripedRead(benchmark::State &state)
{
    const LpddrTimings t;
    for (auto _ : state) {
        DramPackage pkg(t, 8);
        Tick done = 0;
        for (uint32_t i = 0; i < 512; ++i)
            done = pkg.readStriped(0, i % 128, i / 128, 256);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PackageStripedRead);

void
BM_CxlBulkRead(benchmark::State &state)
{
    for (auto _ : state) {
        CxlLink link(CxlConfig{});
        Tick done = 0;
        for (int i = 0; i < 256; ++i)
            done = link.bulkRead(0, 4096);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CxlBulkRead);

void
BM_Softmax(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Rng rng(7);
    std::vector<float> base(n);
    for (auto &x : base)
        x = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        std::vector<float> s = base;
        softmaxInPlace(s);
        benchmark::DoNotOptimize(s.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Softmax)->Arg(1024)->Arg(4096);

void
BM_DenseAttention(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const size_t d = 64;
    Rng rng(8);
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const Matrix values(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    for (auto _ : state) {
        auto r = denseAttention(q.data(), keys, values, 0.125f);
        benchmark::DoNotOptimize(r.output.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DenseAttention)->Arg(1024)->Arg(8192);

void
BM_BatchScan4K(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    const size_t n = 4096;
    Rng rng(2);
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, d);
    const auto q = rng.gaussianVec(d);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), d, qw.data());
    std::vector<uint32_t> survivors(n);
    size_t count = 0;
    for (auto _ : state) {
        batchScanMulti(qw.data(), 1, signs, 0, n, static_cast<int>(d) / 2,
                       survivors.data(), n, &count);
        benchmark::DoNotOptimize(count);
        benchmark::DoNotOptimize(survivors.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernelBackendName(activeKernelBackend()));
}
BENCHMARK(BM_BatchScan4K)->Arg(64)->Arg(128);

void
BM_BatchDotGather(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    const size_t n = 4096;
    Rng rng(9);
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const auto q = rng.gaussianVec(d);
    // Every other key survives: the typical post-SCF gather shape.
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < n; i += 2)
        idx.push_back(static_cast<uint32_t>(i));
    std::vector<float> out(idx.size());
    for (auto _ : state) {
        batchDotScaleAt(q.data(), keys, idx.data(), idx.size(), 0.125f,
                        out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * idx.size());
    state.SetLabel(kernelBackendName(activeKernelBackend()));
}
BENCHMARK(BM_BatchDotGather)->Arg(64)->Arg(128);

void
BM_FusedScoreSelect(benchmark::State &state)
{
    const size_t d = static_cast<size_t>(state.range(0));
    const size_t n = 4096;
    const size_t k = 128;
    Rng rng(2);
    const Matrix keys(n, d, rng.gaussianVec(n * d));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, d);
    const auto q = rng.gaussianVec(d);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), d, qw.data());
    const ScanSpan all{0, n, 0};
    std::vector<ScoredIndex> out(k);
    size_t m = 0;
    for (auto _ : state) {
        batchScoreSelectMultiSpans(qw.data(), 1, signs, &all, 1,
                                   static_cast<int>(d) / 2, q.data(), d,
                                   keys, 0.125f, k, out.data(), k, &m);
        benchmark::DoNotOptimize(m);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernelBackendName(activeKernelBackend()));
}
BENCHMARK(BM_FusedScoreSelect)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------
// Scalar-vs-SIMD comparison: keys/sec per backend + bit-identity gate.
// ---------------------------------------------------------------------

struct KernelRow
{
    std::string kernel;
    size_t dim;
    size_t keys;
    KernelBackend backend;
    double keysPerSec;
    double speedup; // vs scalar, same kernel+shape
    bool bitIdentical;
};

/** Best-of-reps throughput of fn() (which processes `keys` items),
 *  with one warmup call and the inner loop sized so each timed
 *  sample does enough work for the clock. */
template <class F>
double
bestKeysPerSec(size_t keys, int reps, F &&fn)
{
    const size_t inner = std::max<size_t>(1, (1u << 22) / keys);
    double best = 0.0;
    for (int r = 0; r <= reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < inner; ++i)
            fn();
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (r == 0)
            continue; // warmup
        best = std::max(best,
                        static_cast<double>(inner * keys) / sec);
    }
    return best;
}

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

int
runKernelComparison(size_t keys, int reps, const std::string &out_path)
{
    const KernelBackend active = activeKernelBackend();
    std::vector<KernelRow> rows;
    bool all_identical = true;

    for (size_t dim : {64u, 128u}) {
        Rng rng(42);
        const Matrix key_mat(keys, dim, rng.gaussianVec(keys * dim));
        const SignMatrix signs =
            SignMatrix::pack(key_mat.data(), keys, dim);
        const auto q = rng.gaussianVec(dim);
        const int threshold = static_cast<int>(dim) / 2;
        const float scale = 0.125f;
        const ScanSpan all{0, keys, 0};
        std::vector<uint64_t> qw(signs.wordsPerRow());
        packSigns(q.data(), dim, qw.data());

        // Scalar reference results (survivors + their scores).
        setKernelBackend(KernelBackend::Scalar);
        std::vector<uint32_t> ref_survivors(keys);
        size_t ref_count = 0;
        batchScanMulti(qw.data(), 1, signs, 0, keys, threshold,
                       ref_survivors.data(), keys, &ref_count);
        ref_survivors.resize(ref_count);
        std::vector<float> ref_scores(ref_survivors.size());
        batchDotScaleAt(q.data(), key_mat, ref_survivors.data(),
                        ref_survivors.size(), scale, ref_scores.data());

        // Fused-kernel reference: the unfused pipeline's exact top-k
        // (the fused driver contracts to match it bit for bit).
        const size_t k = 1024;
        const auto ref_sel = topkSelect(ref_scores, ref_survivors, k);

        // GQA-group multi-query shape: 4 queries, one pass. References
        // are the scalar backend's one-query results, so the gate
        // closes the whole contract — a group on any backend must
        // equal one-query scalar, query by query.
        const size_t nq = 4;
        const size_t wpr = signs.wordsPerRow();
        Matrix qm(nq, dim);
        std::vector<uint64_t> qwm(nq * wpr);
        for (size_t g = 0; g < nq; ++g) {
            const auto v = rng.gaussianVec(dim);
            qm.setRow(g, v.data());
            packSigns(v.data(), dim, qwm.data() + g * wpr);
        }
        std::vector<std::vector<uint32_t>> ref_msurv(nq);
        std::vector<std::vector<ScoredIndex>> ref_msel(nq);
        const size_t kcap = std::min(k, keys);
        for (size_t g = 0; g < nq; ++g) {
            ref_msurv[g].resize(keys);
            std::vector<size_t> one(1);
            batchScanMulti(qwm.data() + g * wpr, 1, signs, 0, keys,
                           threshold, ref_msurv[g].data(), keys,
                           one.data());
            ref_msurv[g].resize(one[0]);
            ref_msel[g].resize(kcap);
            batchScoreSelectMultiSpans(qwm.data() + g * wpr, 1, signs,
                                       &all, 1, threshold, qm.row(g), dim,
                                       key_mat, scale, k,
                                       ref_msel[g].data(), kcap,
                                       one.data());
            ref_msel[g].resize(one[0]);
        }

        // INT8 arena (the KvCache enableKeyQuantization layout) plus
        // scalar references for the quantized-scoring kernels: the
        // mixed float x int8 dot, the exact int8 x int8 estimation
        // dot, and the fused estimate -> top-k select.
        std::vector<int8_t> kq(keys * dim);
        std::vector<float> kscales(keys);
        for (size_t i = 0; i < keys; ++i)
            quantizeInt8Into(key_mat.row(i), dim, kq.data() + i * dim,
                             &kscales[i]);
        std::vector<int8_t> q8(dim);
        float q8_scale = 0.0f;
        quantizeInt8Into(q.data(), dim, q8.data(), &q8_scale);

        std::vector<float> ref_qdot(keys);
        batchQuantDotRange(q.data(), kq.data(), kscales.data(), dim, 0,
                           keys, scale, ref_qdot.data());
        std::vector<int32_t> ref_idot(keys);
        batchInt8DotRange(q8.data(), kq.data(), dim, 0, keys,
                          ref_idot.data());
        std::vector<ScoredIndex> ref_isel(kcap);
        size_t ref_isel_n = 0;
        batchInt8ScoreSelectMultiSpans(q8.data(), &q8_scale, 1, kq.data(),
                                       kscales.data(), dim, &all, 1,
                                       scale, k, ref_isel.data(), kcap,
                                       &ref_isel_n);
        ref_isel.resize(ref_isel_n);

        double scalar_scan = 0.0, scalar_dot = 0.0, scalar_fused = 0.0;
        double scalar_mscan = 0.0, scalar_mfused = 0.0;
        double scalar_qdot = 0.0, scalar_idot = 0.0, scalar_isel = 0.0;
        for (KernelBackend b : availableBackends()) {
            setKernelBackend(b);

            std::vector<uint32_t> survivors(keys);
            size_t count = 0;
            const double scan_rate =
                bestKeysPerSec(keys, reps, [&] {
                    batchScanMulti(qw.data(), 1, signs, 0, keys,
                                   threshold, survivors.data(), keys,
                                   &count);
                });
            survivors.resize(count);
            const bool scan_same = survivors == ref_survivors;

            std::vector<float> scores(ref_survivors.size());
            const double dot_rate =
                bestKeysPerSec(ref_survivors.size(), reps, [&] {
                    batchDotScaleAt(q.data(), key_mat,
                                    ref_survivors.data(),
                                    ref_survivors.size(), scale,
                                    scores.data());
                });
            const bool dot_same = scores == ref_scores;

            std::vector<ScoredIndex> sel(kcap);
            size_t nsel = 0;
            const double fused_rate =
                bestKeysPerSec(keys, reps, [&] {
                    batchScoreSelectMultiSpans(qw.data(), 1, signs, &all,
                                               1, threshold, q.data(),
                                               dim, key_mat, scale, k,
                                               sel.data(), kcap, &nsel);
                });
            bool fused_same = nsel == ref_sel.size();
            for (size_t i = 0; fused_same && i < nsel; ++i)
                fused_same = sel[i].score == ref_sel[i].score &&
                    sel[i].index == ref_sel[i].index;

            // Grouped 4-query pass; rates count key-query tests so
            // they compare directly with the one-query rows.
            std::vector<uint32_t> msurv(nq * keys);
            std::vector<size_t> mcounts(nq);
            const double mscan_rate =
                bestKeysPerSec(nq * keys, reps, [&] {
                    batchScanMulti(qwm.data(), nq, signs, 0, keys,
                                   threshold, msurv.data(), keys,
                                   mcounts.data());
                });
            bool mscan_same = true;
            for (size_t g = 0; g < nq; ++g) {
                bool same = mcounts[g] == ref_msurv[g].size();
                for (size_t i = 0; same && i < mcounts[g]; ++i)
                    same = msurv[g * keys + i] == ref_msurv[g][i];
                mscan_same = mscan_same && same;
            }

            std::vector<ScoredIndex> msel(nq * kcap);
            std::vector<size_t> mnsel(nq);
            const double mfused_rate =
                bestKeysPerSec(nq * keys, reps, [&] {
                    batchScoreSelectMultiSpans(qwm.data(), nq, signs,
                                               &all, 1, threshold,
                                               qm.row(0), dim, key_mat,
                                               scale, k, msel.data(),
                                               kcap, mnsel.data());
                });
            bool mfused_same = true;
            for (size_t g = 0; g < nq; ++g) {
                bool same = mnsel[g] == ref_msel[g].size();
                for (size_t i = 0; same && i < mnsel[g]; ++i)
                    same = msel[g * kcap + i].score ==
                            ref_msel[g][i].score &&
                        msel[g * kcap + i].index == ref_msel[g][i].index;
                mfused_same = mfused_same && same;
            }

            // INT8 scoring kernels (dispatch-routed: scalar contract
            // reference, AVX2 maddubs, AVX-512 VNNI where available).
            std::vector<float> qdot(keys);
            const double qdot_rate = bestKeysPerSec(keys, reps, [&] {
                batchQuantDotRange(q.data(), kq.data(), kscales.data(),
                                   dim, 0, keys, scale, qdot.data());
            });
            const bool qdot_same = qdot == ref_qdot;

            std::vector<int32_t> idot(keys);
            const double idot_rate = bestKeysPerSec(keys, reps, [&] {
                batchInt8DotRange(q8.data(), kq.data(), dim, 0, keys,
                                  idot.data());
            });
            const bool idot_same = idot == ref_idot;

            std::vector<ScoredIndex> isel(kcap);
            size_t nisel = 0;
            const double isel_rate = bestKeysPerSec(keys, reps, [&] {
                batchInt8ScoreSelectMultiSpans(
                    q8.data(), &q8_scale, 1, kq.data(), kscales.data(),
                    dim, &all, 1, scale, k, isel.data(), kcap, &nisel);
            });
            bool isel_same = nisel == ref_isel.size();
            for (size_t i = 0; isel_same && i < nisel; ++i)
                isel_same = isel[i].score == ref_isel[i].score &&
                    isel[i].index == ref_isel[i].index;

            if (b == KernelBackend::Scalar) {
                scalar_scan = scan_rate;
                scalar_dot = dot_rate;
                scalar_fused = fused_rate;
                scalar_mscan = mscan_rate;
                scalar_mfused = mfused_rate;
                scalar_qdot = qdot_rate;
                scalar_idot = idot_rate;
                scalar_isel = isel_rate;
            }
            all_identical = all_identical && scan_same && dot_same &&
                fused_same && mscan_same && mfused_same && qdot_same &&
                idot_same && isel_same;
            rows.push_back({"scan", dim, keys, b, scan_rate,
                            scan_rate / scalar_scan, scan_same});
            rows.push_back({"dot", dim, ref_survivors.size(), b,
                            dot_rate, dot_rate / scalar_dot, dot_same});
            rows.push_back({"score_select", dim, keys, b, fused_rate,
                            fused_rate / scalar_fused, fused_same});
            rows.push_back({"scan_multi_q4", dim, keys, b, mscan_rate,
                            mscan_rate / scalar_mscan, mscan_same});
            rows.push_back({"score_select_multi_q4", dim, keys, b,
                            mfused_rate, mfused_rate / scalar_mfused,
                            mfused_same});
            rows.push_back({"quant_dot", dim, keys, b, qdot_rate,
                            qdot_rate / scalar_qdot, qdot_same});
            rows.push_back({"int8_dot", dim, keys, b, idot_rate,
                            idot_rate / scalar_idot, idot_same});
            rows.push_back({"int8_score_select", dim, keys, b,
                            isel_rate, isel_rate / scalar_isel,
                            isel_same});
            if (!scan_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " scan survivors differ from scalar (dim "
                          << dim << ")\n";
            if (!dot_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " dot scores differ from scalar (dim "
                          << dim << ")\n";
            if (!fused_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " fused score_select differs from the "
                             "unfused scalar pipeline (dim "
                          << dim << ")\n";
            if (!mscan_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " grouped scan differs per query from the "
                             "scalar one-query scan (dim "
                          << dim << ")\n";
            if (!mfused_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " grouped score_select differs per query "
                             "from the scalar one-query pass (dim "
                          << dim << ")\n";
            if (!qdot_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " quant_dot differs from the scalar "
                             "dotQuantized contract (dim "
                          << dim << ")\n";
            if (!idot_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " int8_dot differs from the scalar exact "
                             "integer dot (dim "
                          << dim << ")\n";
            if (!isel_same)
                std::cerr << "FAIL: " << kernelBackendName(b)
                          << " fused int8_score_select differs from "
                             "scalar (dim "
                          << dim << ")\n";
        }
    }
    setKernelBackend(active);

    std::ofstream os(out_path);
    LS_ASSERT(os.good(), "cannot write ", out_path);
    os << "{\n" << benchMeta("micro_kernels") << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const KernelRow &r = rows[i];
        os << "    {\"kernel\": \"" << r.kernel << "\", \"dim\": "
           << r.dim << ", \"keys\": " << r.keys << ", \"backend\": \""
           << kernelBackendName(r.backend) << "\", \"keys_per_s\": "
           << r.keysPerSec << ", \"speedup_vs_scalar\": " << r.speedup
           << ", \"bit_identical\": "
           << (r.bitIdentical ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";

    std::cout << "\nscalar-vs-SIMD (" << keys << " keys, best of "
              << reps << "):\n";
    for (const KernelRow &r : rows)
        std::cout << "  " << r.kernel << " d" << r.dim << " "
                  << kernelBackendName(r.backend) << ": "
                  << static_cast<uint64_t>(r.keysPerSec / 1e6)
                  << " Mkeys/s (" << r.speedup << "x scalar, "
                  << (r.bitIdentical ? "bit-identical" : "MISMATCH")
                  << ")\n";
    std::cout << "wrote " << out_path << "\n";
    return all_identical ? 0 : 1;
}

} // namespace
} // namespace longsight

int
main(int argc, char **argv)
{
    using namespace longsight;
    // google-benchmark strips the --benchmark_* flags it recognizes;
    // whatever remains is ours.
    benchmark::Initialize(&argc, argv);
    Flags flags(argc, argv);
    const auto keys =
        static_cast<size_t>(flags.getInt("keys", 65536));
    const int reps = static_cast<int>(flags.getInt("reps", 5));
    const bool gbench = flags.getBool("gbench", true);
    const std::string out =
        flags.getString("out", "BENCH_kernels.json");
    flags.rejectUnknown();

    if (gbench)
        benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return runKernelComparison(keys, reps, out);
}
