/**
 * @file
 * Multi-query (GQA query group) kernel parity tests. The contract
 * under test is the whole point of the grouped scan layer: for every
 * compiled-in backend, batchScanMulti and concordanceBitmapMulti must
 * match an independent reference (the scalar batchConcordance of each
 * query, thresholded), and batchScoreSelectMultiSpans must produce
 * BIT-IDENTICAL per-query results to running it once per query with
 * num_queries = 1 — across awkward dims, row counts, thresholds,
 * subranges, query counts (including one query, non-multiples of the
 * SIMD chunk width, and more than kMaxScanQueries to force driver
 * chunking), and empty regions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_heap.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

/** Backends available on this host (scalar always is). */
std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** Force a backend for the current scope, restoring on exit. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(KernelBackend b) : prev_(activeKernelBackend())
    {
        setKernelBackend(b);
    }
    ~ScopedBackend() { setKernelBackend(prev_); }

  private:
    KernelBackend prev_;
};

struct Shape
{
    size_t dim;
    size_t rows;
};

const Shape kShapes[] = {
    {1, 5},     {37, 13},  {64, 129}, {100, 77},
    {128, 130}, {129, 33}, {200, 50},
};

/** A group of queries plus their packed filter-space sign words. */
struct QueryGroup
{
    Matrix q;
    std::vector<uint64_t> words;
};

QueryGroup
makeQueries(Rng &rng, size_t nq, size_t dim, size_t wpr)
{
    QueryGroup g;
    g.q.resize(nq, dim);
    g.words.resize(nq * wpr);
    for (size_t i = 0; i < nq; ++i) {
        const auto v = rng.gaussianVec(dim);
        g.q.setRow(i, v.data());
        packSigns(v.data(), dim, g.words.data() + i * wpr);
    }
    return g;
}

/** Independent scan reference: rows in [begin, end) whose scalar
 *  batchConcordance with query i of g reaches th. */
std::vector<uint32_t>
referenceSurvivors(const QueryGroup &g, size_t i, const SignMatrix &m,
                   size_t begin, size_t end, int th)
{
    ScopedBackend scalar(KernelBackend::Scalar);
    std::vector<int32_t> conc(end - begin);
    batchConcordance(g.words.data() + i * m.wordsPerRow(), m, begin, end,
                     conc.data());
    std::vector<uint32_t> out;
    for (size_t r = begin; r < end; ++r)
        if (conc[r - begin] >= th)
            out.push_back(static_cast<uint32_t>(r));
    return out;
}

TEST(MultiScan, SurvivorsMatchThresholdedConcordanceAllBackends)
{
    Rng rng(201);
    for (const Shape &sh : kShapes) {
        const auto flat = rng.gaussianVec(sh.rows * sh.dim);
        const SignMatrix m =
            SignMatrix::pack(flat.data(), sh.rows, sh.dim);
        const int dim_i = static_cast<int>(sh.dim);
        for (size_t nq : {size_t{1}, size_t{3}, size_t{4}, size_t{16}}) {
            const QueryGroup g = makeQueries(rng, nq, sh.dim,
                                             m.wordsPerRow());
            for (int th : {0, dim_i / 3, dim_i / 2 + 2, dim_i + 1}) {
                std::vector<std::vector<uint32_t>> ref(nq);
                for (size_t i = 0; i < nq; ++i)
                    ref[i] = referenceSurvivors(g, i, m, 0, sh.rows, th);
                for (KernelBackend b : availableBackends()) {
                    ScopedBackend guard(b);
                    // Awkward stride: wider than the row count.
                    const size_t stride = sh.rows + 3;
                    std::vector<uint32_t> got(nq * stride, 0xdeadu);
                    std::vector<size_t> counts(nq, 777);
                    batchScanMulti(g.words.data(), nq, m, 0, sh.rows,
                                   th, got.data(), stride,
                                   counts.data());
                    for (size_t i = 0; i < nq; ++i) {
                        ASSERT_EQ(counts[i], ref[i].size())
                            << kernelBackendName(b) << " dim " << sh.dim
                            << " nq " << nq << " th " << th << " q "
                            << i;
                        for (size_t j = 0; j < counts[i]; ++j)
                            ASSERT_EQ(got[i * stride + j], ref[i][j])
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                    }
                }
            }
        }
    }
}

TEST(MultiScan, SubrangeKeepsAbsoluteIndices)
{
    Rng rng(202);
    const size_t dim = 128, rows = 300;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, 4, dim, m.wordsPerRow());
    const int th = 66;
    const size_t begin = 17, end = 261;
    std::vector<std::vector<uint32_t>> ref(4);
    for (size_t i = 0; i < 4; ++i)
        ref[i] = referenceSurvivors(g, i, m, begin, end, th);
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        const size_t stride = end - begin;
        std::vector<uint32_t> got(4 * stride);
        std::vector<size_t> counts(4);
        batchScanMulti(g.words.data(), 4, m, begin, end, th, got.data(),
                       stride, counts.data());
        for (size_t i = 0; i < 4; ++i) {
            ASSERT_EQ(counts[i], ref[i].size()) << kernelBackendName(b);
            for (size_t j = 0; j < counts[i]; ++j) {
                ASSERT_EQ(got[i * stride + j], ref[i][j]);
                ASSERT_GE(got[i * stride + j], begin);
            }
        }
    }
}

TEST(MultiScan, ChunksBeyondMaxQueries)
{
    // 19 queries forces the public driver to split into
    // kMaxScanQueries-sized streaming chunks; results must be
    // indistinguishable from one pass per query.
    Rng rng(203);
    const size_t dim = 128, rows = 200, nq = kMaxScanQueries + 3;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, nq, dim, m.wordsPerRow());
    const int th = 64;
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<uint32_t> got(nq * rows);
        std::vector<size_t> counts(nq);
        batchScanMulti(g.words.data(), nq, m, 0, rows, th, got.data(),
                       rows, counts.data());
        for (size_t i = 0; i < nq; ++i) {
            const auto ref = referenceSurvivors(g, i, m, 0, rows, th);
            ASSERT_EQ(counts[i], ref.size())
                << kernelBackendName(b) << " q " << i;
            for (size_t j = 0; j < ref.size(); ++j)
                ASSERT_EQ(got[i * rows + j], ref[j]);
        }
    }
}

TEST(MultiScan, EmptyRangeZeroesCounts)
{
    Rng rng(204);
    const size_t dim = 64, rows = 40;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const QueryGroup g = makeQueries(rng, 5, dim, m.wordsPerRow());
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<uint32_t> got(5 * rows, 0xdeadu);
        std::vector<size_t> counts(5, 777);
        batchScanMulti(g.words.data(), 5, m, 9, 9, 0, got.data(), rows,
                       counts.data());
        for (size_t i = 0; i < 5; ++i)
            EXPECT_EQ(counts[i], 0u) << kernelBackendName(b);
    }
}

TEST(BitmapMulti, MatchesThresholdedConcordance)
{
    Rng rng(205);
    const size_t dim = 100, rows = 140;
    const auto flat = rng.gaussianVec(rows * dim);
    const SignMatrix m = SignMatrix::pack(flat.data(), rows, dim);
    const int th = 52;
    for (uint32_t num_keys : {1u, 63u, 64u, 65u, 127u, 128u}) {
        for (size_t nq : {size_t{1}, size_t{4}, size_t{16}}) {
            const QueryGroup g = makeQueries(rng, nq, dim,
                                             m.wordsPerRow());
            for (KernelBackend b : availableBackends()) {
                ScopedBackend guard(b);
                std::vector<uint64_t> got(2 * nq, ~uint64_t{0});
                concordanceBitmapMulti(g.words.data(), nq, m, 7,
                                       num_keys, th, got.data());
                for (size_t i = 0; i < nq; ++i) {
                    uint64_t ref[2] = {0, 0};
                    for (uint32_t r : referenceSurvivors(
                             g, i, m, 7, 7 + num_keys, th))
                        ref[(r - 7) >> 6] |= uint64_t{1} << ((r - 7) & 63);
                    EXPECT_EQ(got[i * 2 + 0], ref[0])
                        << kernelBackendName(b) << " keys " << num_keys
                        << " q " << i;
                    EXPECT_EQ(got[i * 2 + 1], ref[1])
                        << kernelBackendName(b) << " keys " << num_keys
                        << " q " << i;
                }
            }
        }
    }
}

TEST(ScoreSelectMulti, GroupMatchesOneQueryPassesAllBackends)
{
    Rng rng(206);
    for (const size_t dim : {size_t{64}, size_t{100}, size_t{128}}) {
        const size_t rows = 300;
        Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
        const SignMatrix m = SignMatrix::pack(keys.data(), rows, dim);
        const float scale =
            1.0f / std::sqrt(static_cast<float>(dim));
        const int th = static_cast<int>(dim) / 2;
        const size_t wpr = m.wordsPerRow();
        // Four queries (one GQA group) and more than kMaxScanQueries
        // (driver chunking), over the identity span [3, rows).
        const ScanSpan region{3, rows - 3, 3};
        for (const size_t nq : {size_t{4}, kMaxScanQueries + 3}) {
            const QueryGroup g = makeQueries(rng, nq, dim, wpr);
            for (const size_t k : {size_t{8}, size_t{64}, size_t{1000}}) {
                const size_t kcap = std::min(k, rows);
                for (KernelBackend b : availableBackends()) {
                    ScopedBackend guard(b);
                    std::vector<ScoredIndex> ref(nq * kcap);
                    std::vector<size_t> ref_n(nq), ref_surv(nq);
                    for (size_t i = 0; i < nq; ++i)
                        batchScoreSelectMultiSpans(
                            g.words.data() + i * wpr, 1, m, &region, 1,
                            th, g.q.row(i), dim, keys, scale, k,
                            ref.data() + i * kcap, kcap, &ref_n[i],
                            &ref_surv[i]);
                    std::vector<ScoredIndex> got(nq * kcap);
                    std::vector<size_t> got_n(nq), surv(nq);
                    size_t span_surv = 0;
                    batchScoreSelectMultiSpans(
                        g.words.data(), nq, m, &region, 1, th, g.q.row(0),
                        g.q.cols(), keys, scale, k, got.data(), kcap,
                        got_n.data(), surv.data(), &span_surv);
                    size_t total = 0;
                    for (size_t i = 0; i < nq; ++i) {
                        ASSERT_EQ(got_n[i], ref_n[i])
                            << kernelBackendName(b) << " dim " << dim
                            << " k " << k << " q " << i;
                        EXPECT_EQ(surv[i], ref_surv[i]);
                        EXPECT_GE(surv[i], got_n[i]);
                        total += surv[i];
                        for (size_t j = 0; j < got_n[i]; ++j) {
                            ASSERT_EQ(got[i * kcap + j].index,
                                      ref[i * kcap + j].index)
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                            ASSERT_EQ(got[i * kcap + j].score,
                                      ref[i * kcap + j].score)
                                << kernelBackendName(b) << " q " << i
                                << " j " << j;
                        }
                    }
                    EXPECT_EQ(span_surv, total);
                }
            }
        }
    }
}

TEST(ScoreSelectMulti, SurvivorCountsMatchScan)
{
    Rng rng(207);
    const size_t dim = 128, rows = 256;
    Matrix keys(rows, dim, rng.gaussianVec(rows * dim));
    const SignMatrix m = SignMatrix::pack(keys.data(), rows, dim);
    const int th = 64;
    const QueryGroup g = makeQueries(rng, 4, dim, m.wordsPerRow());
    const ScanSpan all{0, rows, 0};
    for (KernelBackend b : availableBackends()) {
        ScopedBackend guard(b);
        std::vector<ScoredIndex> out(4 * rows);
        std::vector<size_t> nsel(4), surv(4);
        batchScoreSelectMultiSpans(g.words.data(), 4, m, &all, 1, th,
                                   g.q.row(0), g.q.cols(), keys, 0.125f,
                                   rows, out.data(), rows, nsel.data(),
                                   surv.data());
        for (size_t i = 0; i < 4; ++i) {
            const auto ref = referenceSurvivors(g, i, m, 0, rows, th);
            EXPECT_EQ(surv[i], ref.size()) << kernelBackendName(b);
            // k >= rows: the top-k IS the survivor set.
            EXPECT_EQ(nsel[i], ref.size()) << kernelBackendName(b);
        }
    }
}

} // namespace
} // namespace longsight
