/**
 * @file
 * Tests for the fused scan -> score -> select drivers, one query at a
 * time over one identity span: element-for-element identity with the
 * unfused batchScanMulti + batchDotScaleAt + topkSelect pipeline on
 * every available backend, deterministic index tie-breaking on equal
 * scores, k larger than the survivor count, sub-range scans, the
 * survivor-count side output, and the quantized and INT8-estimation
 * drivers against their own unfused pipelines.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/topk.hh"
#include "tensor/kernels.hh"
#include "tensor/quantized.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** One-query scan over [begin, end). */
std::vector<uint32_t>
scanOne(const uint64_t *qw, const SignMatrix &signs, size_t begin,
        size_t end, int threshold)
{
    std::vector<uint32_t> survivors(end - begin);
    size_t n = 0;
    batchScanMulti(qw, 1, signs, begin, end, threshold, survivors.data(),
                   end - begin, &n);
    survivors.resize(n);
    return survivors;
}

/** The unfused pipeline the fused kernel contracts to match. */
std::vector<ScoredIndex>
reference(const uint64_t *qw, const SignMatrix &signs, size_t begin,
          size_t end, int threshold, const float *q, const Matrix &keys,
          float scale, size_t k, size_t *survivors_out)
{
    const auto survivors = scanOne(qw, signs, begin, end, threshold);
    const size_t n = survivors.size();
    std::vector<float> scores(n);
    batchDotScaleAt(q, keys, survivors.data(), n, scale, scores.data());
    if (survivors_out)
        *survivors_out = n;
    return topkSelect(scores, survivors, k);
}

/** One query through the fused driver over the identity span
 *  [begin, end); returns the entry count. */
size_t
selectOne(const uint64_t *qw, const SignMatrix &signs, size_t begin,
          size_t end, int threshold, const float *q, const Matrix &keys,
          float scale, size_t k, ScoredIndex *out,
          size_t *survivors = nullptr)
{
    const ScanSpan region{begin, end - begin, begin};
    size_t n = 0;
    batchScoreSelectMultiSpans(qw, 1, signs, &region, 1, threshold, q,
                               keys.cols(), keys, scale, k, out,
                               std::min(k, end - begin), &n, survivors);
    return n;
}

void
expectSame(const std::vector<ScoredIndex> &ref, const ScoredIndex *got,
           size_t got_n, const char *what)
{
    ASSERT_EQ(ref.size(), got_n) << what;
    for (size_t i = 0; i < got_n; ++i) {
        EXPECT_EQ(ref[i].index, got[i].index) << what << " rank " << i;
        EXPECT_EQ(ref[i].score, got[i].score) << what << " rank " << i;
    }
}

TEST(BatchScoreSelect, MatchesUnfusedPipelineAcrossBackends)
{
    const KernelBackend active = activeKernelBackend();
    Rng rng(11);
    for (size_t dim : {64u, 128u}) {
        for (size_t n : {1u, 100u, 700u, 2048u}) {
            const Matrix keys(n, dim, rng.gaussianVec(n * dim));
            const SignMatrix signs =
                SignMatrix::pack(keys.data(), n, dim);
            const auto q = rng.gaussianVec(dim);
            std::vector<uint64_t> qw(signs.wordsPerRow());
            packSigns(q.data(), dim, qw.data());
            const int threshold = static_cast<int>(dim) / 2;
            for (size_t k : {size_t{1}, size_t{13}, size_t{128}, n}) {
                size_t ref_survivors = 0;
                const auto ref = reference(
                    qw.data(), signs, 0, n, threshold, q.data(), keys,
                    0.125f, k, &ref_survivors);
                for (KernelBackend b : availableBackends()) {
                    setKernelBackend(b);
                    std::vector<ScoredIndex> sel(std::min(k, n));
                    size_t survivors = 0;
                    const size_t m = selectOne(
                        qw.data(), signs, 0, n, threshold, q.data(),
                        keys, 0.125f, k, sel.data(), &survivors);
                    expectSame(ref, sel.data(), m,
                               kernelBackendName(b));
                    EXPECT_EQ(survivors, ref_survivors)
                        << kernelBackendName(b);
                }
                setKernelBackend(active);
            }
        }
    }
}

TEST(BatchScoreSelect, TiedScoresBreakTowardLowerIndex)
{
    const KernelBackend active = activeKernelBackend();
    const size_t dim = 64;
    Rng rng(5);
    // 64 copies of 4 distinct keys: plenty of exactly-equal scores.
    const auto base = rng.gaussianVec(4 * dim);
    Matrix keys(256, dim);
    for (size_t i = 0; i < 256; ++i)
        keys.setRow(i, base.data() + (i % 4) * dim);
    const SignMatrix signs = SignMatrix::pack(keys.data(), 256, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    for (KernelBackend b : availableBackends()) {
        setKernelBackend(b);
        std::vector<ScoredIndex> sel(16);
        const size_t m = selectOne(qw.data(), signs, 0, 256, 0, q.data(),
                                   keys, 1.0f, 16, sel.data());
        ASSERT_EQ(m, 16u) << kernelBackendName(b);
        // Best-first: scores descend; equal scores order by index.
        for (size_t i = 1; i < m; ++i) {
            EXPECT_TRUE(sel[i - 1].betterThan(sel[i]))
                << kernelBackendName(b) << " rank " << i;
            if (sel[i - 1].score == sel[i].score) {
                EXPECT_LT(sel[i - 1].index, sel[i].index)
                    << kernelBackendName(b) << " rank " << i;
            }
        }
        // The winners are the 16 lowest indices of the best key class
        // (every 4th row scores identically).
        for (size_t i = 1; i < m; ++i)
            EXPECT_EQ(sel[i].index, sel[0].index + 4 * i)
                << kernelBackendName(b);
    }
    setKernelBackend(active);
}

TEST(BatchScoreSelect, KLargerThanSurvivorCountReturnsAll)
{
    const size_t dim = 64, n = 300;
    Rng rng(17);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());
    // A strict threshold keeps only a handful of survivors.
    const int threshold = static_cast<int>(dim) / 2 + 6;

    size_t survivors = 0;
    std::vector<ScoredIndex> sel(n);
    const size_t m =
        selectOne(qw.data(), signs, 0, n, threshold, q.data(), keys,
                  0.125f, 10 * n, sel.data(), &survivors);
    EXPECT_EQ(m, survivors);
    EXPECT_LT(survivors, n);
    const auto ref = reference(qw.data(), signs, 0, n, threshold,
                               q.data(), keys, 0.125f, 10 * n, nullptr);
    expectSame(ref, sel.data(), m, "k >= survivors");
}

TEST(BatchScoreSelect, HonorsSubRange)
{
    const size_t dim = 64, n = 512;
    Rng rng(23);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    const size_t begin = 100, end = 400;
    std::vector<ScoredIndex> sel(end - begin);
    const size_t m = selectOne(qw.data(), signs, begin, end, 0,
                               q.data(), keys, 0.125f, 64, sel.data());
    ASSERT_EQ(m, 64u);
    for (size_t i = 0; i < m; ++i) {
        EXPECT_GE(sel[i].index, begin);
        EXPECT_LT(sel[i].index, end);
    }
    const auto ref = reference(qw.data(), signs, begin, end, 0,
                               q.data(), keys, 0.125f, 64, nullptr);
    expectSame(ref, sel.data(), m, "sub-range");
}

TEST(BatchScoreSelect, EmptyRangeAndNoSurvivors)
{
    const size_t dim = 64, n = 64;
    Rng rng(29);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());

    ScoredIndex sel[8];
    size_t survivors = 123;
    EXPECT_EQ(selectOne(qw.data(), signs, 10, 10, 0, q.data(), keys,
                        1.0f, 8, sel, &survivors),
              0u);
    EXPECT_EQ(survivors, 0u);
    // Impossible threshold: scan finds nothing.
    survivors = 123;
    EXPECT_EQ(selectOne(qw.data(), signs, 0, n, static_cast<int>(dim) + 1,
                        q.data(), keys, 1.0f, 8, sel, &survivors),
              0u);
    EXPECT_EQ(survivors, 0u);
}

/** INT8 arena of `keys` (the KvCache::enableKeyQuantization layout). */
void
quantizeRows(const Matrix &keys, std::vector<int8_t> &kq,
             std::vector<float> &scales)
{
    kq.resize(keys.rows() * keys.cols());
    scales.resize(keys.rows());
    for (size_t i = 0; i < keys.rows(); ++i)
        quantizeInt8Into(keys.row(i), keys.cols(),
                         kq.data() + i * keys.cols(), &scales[i]);
}

TEST(BatchQuantScoreSelect, MatchesUnfusedPipelineAcrossBackends)
{
    const KernelBackend active = activeKernelBackend();
    const size_t dim = 100, n = 700, begin = 37, end = 650;
    Rng rng(31);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    const SignMatrix signs = SignMatrix::pack(keys.data(), n, dim);
    std::vector<int8_t> kq;
    std::vector<float> scales;
    quantizeRows(keys, kq, scales);
    const auto q = rng.gaussianVec(dim);
    std::vector<uint64_t> qw(signs.wordsPerRow());
    packSigns(q.data(), dim, qw.data());
    const int threshold = static_cast<int>(dim) / 2;
    const float post = 0.125f;
    const ScanSpan region{begin, end - begin, begin};

    // Unfused: scan, score every row of the range, keep survivors.
    const auto survivors = scanOne(qw.data(), signs, begin, end, threshold);
    std::vector<float> all(end - begin);
    batchQuantDotRange(q.data(), kq.data(), scales.data(), dim, begin, end,
                       post, all.data());
    std::vector<float> scores;
    for (uint32_t i : survivors)
        scores.push_back(all[i - begin]);
    for (size_t k : {size_t{1}, size_t{50}, end - begin}) {
        const auto ref = topkSelect(scores, survivors, k);
        for (KernelBackend b : availableBackends()) {
            setKernelBackend(b);
            std::vector<ScoredIndex> sel(std::min(k, end - begin));
            size_t m = 0, surv = 0;
            batchQuantScoreSelectMultiSpans(
                qw.data(), 1, signs, &region, 1, threshold, q.data(), dim,
                kq.data(), scales.data(), dim, post, k, sel.data(),
                sel.size(), &m, &surv);
            expectSame(ref, sel.data(), m, kernelBackendName(b));
            EXPECT_EQ(surv, survivors.size()) << kernelBackendName(b);
        }
        setKernelBackend(active);
    }
}

TEST(BatchInt8ScoreSelect, MatchesUnfusedEstimateAcrossBackends)
{
    const KernelBackend active = activeKernelBackend();
    const size_t dim = 128, n = 600, begin = 5, end = 590;
    Rng rng(37);
    const Matrix keys(n, dim, rng.gaussianVec(n * dim));
    std::vector<int8_t> kq;
    std::vector<float> scales;
    quantizeRows(keys, kq, scales);
    const auto q = rng.gaussianVec(dim);
    std::vector<int8_t> q8(dim);
    float q_scale = 0.0f;
    quantizeInt8Into(q.data(), dim, q8.data(), &q_scale);
    const float post = 0.125f;
    const ScanSpan region{begin, end - begin, begin};

    // Unfused: exact integer dots, then the one fixed multiply order.
    std::vector<int32_t> idot(end - begin);
    batchInt8DotRange(q8.data(), kq.data(), dim, begin, end, idot.data());
    std::vector<float> est(end - begin);
    std::vector<uint32_t> rows(end - begin);
    for (size_t i = begin; i < end; ++i) {
        est[i - begin] = static_cast<float>(idot[i - begin]) *
            ((q_scale * post) * scales[i]);
        rows[i - begin] = static_cast<uint32_t>(i);
    }
    for (size_t k : {size_t{1}, size_t{64}, end - begin + 10}) {
        const auto ref = topkSelect(est, rows, k);
        for (KernelBackend b : availableBackends()) {
            setKernelBackend(b);
            std::vector<ScoredIndex> sel(std::min(k, end - begin));
            size_t m = 0, candidates = 0;
            batchInt8ScoreSelectMultiSpans(
                q8.data(), &q_scale, 1, kq.data(), scales.data(), dim,
                &region, 1, post, k, sel.data(), sel.size(), &m,
                &candidates);
            expectSame(ref, sel.data(), m, kernelBackendName(b));
            EXPECT_EQ(candidates, end - begin) << kernelBackendName(b);
        }
        setKernelBackend(active);
    }
}

} // namespace
} // namespace longsight
