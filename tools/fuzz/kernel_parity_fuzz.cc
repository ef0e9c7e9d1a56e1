/**
 * @file
 * Differential kernel-parity fuzzer: feeds randomized shapes,
 * thresholds, strides, and value patterns through EVERY compiled-in
 * kernel backend (scalar, AVX2, NEON) and asserts per-element bit
 * identity of the outputs — concordance counts, survivor sets, PFU
 * bitmaps, scaled dot products, fused score-select top-k results, and
 * quantized-arena scoring (batchQuantDotRange, batchInt8DotRange and
 * the fused quant/INT8 score-selects). This is the mechanized form of
 * the SCF bit-exactness contract documented in tensor/kernels.hh:
 * survivor sets and scores must not depend on which backend serves
 * them. On every backend it also checks:
 *
 *  - scan and bitmap survivors against an independent reference, the
 *    scalar batchConcordance thresholded per query;
 *  - every grouped driver against the same driver run once per query
 *    with num_queries = 1 (on AVX-512 hosts these reach different scan
 *    kernels);
 *  - every span driver over randomly split, physically permuted
 *    storage against one identity span over the flat storage.
 *
 * Two entry points share one case runner:
 *
 *  - a standalone driver (GCC or any compiler): generates cases from a
 *    deterministic splitmix64 stream, bounded by --iters or --seconds,
 *    and replays any files passed as positional arguments;
 *  - a libFuzzer target (clang with -fsanitize=fuzzer only), enabled
 *    by building with -DLONGSIGHT_LIBFUZZER.
 *
 * Any divergence prints the full case (seed, shape, backend, first
 * differing element) and aborts, so both CI smoke runs and local
 * long-haul runs fail loudly.
 */

#include <algorithm>
#include <chrono>
#include <numeric>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/quantized.hh"
#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_heap.hh"

namespace {

using longsight::KernelBackend;
using longsight::Matrix;
using longsight::ScanSpan;
using longsight::ScoredIndex;
using longsight::SignMatrix;

/** Details of the case being run, for failure reports. */
struct CaseInfo
{
    uint64_t seed = 0;
    size_t dim = 0, rows = 0, begin = 0, end = 0, queries = 0;
    int threshold = 0;
    size_t k = 0;
    const char *backend = "";
    const char *stage = "";
};

CaseInfo g_case;

[[noreturn]] void
fail(const char *what)
{
    std::fprintf(stderr,
                 "kernel-parity FAIL: %s\n"
                 "  stage=%s backend=%s seed=%" PRIu64 "\n"
                 "  dim=%zu rows=%zu range=[%zu,%zu) queries=%zu "
                 "threshold=%d k=%zu\n",
                 what, g_case.stage, g_case.backend, g_case.seed,
                 g_case.dim, g_case.rows, g_case.begin, g_case.end,
                 g_case.queries, g_case.threshold, g_case.k);
    std::abort();
}

void
check(bool ok, const char *what)
{
    if (!ok)
        fail(what);
}

/** Deterministic byte-stream reader (FuzzedDataProvider-alike). */
class Input
{
  public:
    Input(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t byte()
    {
        if (pos_ >= size_)
            return 0;
        return data_[pos_++];
    }

    uint32_t u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v = (v << 8) | byte();
        return v;
    }

    /** Uniform-ish value in [lo, hi] (inclusive). */
    size_t range(size_t lo, size_t hi)
    {
        if (hi <= lo)
            return lo;
        return lo + u32() % (hi - lo + 1);
    }

    /** Small exact float in [-8, 8): every backend must reproduce the
     *  same bits, so values stay finite and well-scaled. */
    float smallFloat()
    {
        return static_cast<float>(static_cast<int32_t>(u32() % 4096) -
                                  2048) /
               256.0f;
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

std::vector<KernelBackend>
availableBackends()
{
    std::vector<KernelBackend> out{KernelBackend::Scalar};
    for (auto b : {KernelBackend::Avx2, KernelBackend::Neon})
        if (longsight::kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

/** One physical layout of the keys: sign rows, float keys and the
 *  INT8 arena (with its per-row scales) share row numbering, and
 *  `spans` maps the case's logical range [begin, end) onto it. */
struct Storage
{
    SignMatrix signs;
    Matrix keys;
    std::vector<int8_t> kq;
    std::vector<float> kscales;
    std::vector<ScanSpan> spans;
};

/** Sign rows, float keys and INT8 arena over the rows of `data`; the
 *  arena uses per-row symmetric quantization, the
 *  KvCache::enableKeyQuantization scheme. */
Storage
makeStorage(size_t dim, const std::vector<float> &data)
{
    const size_t rows = data.size() / dim;
    Storage st{SignMatrix(dim), Matrix(rows, dim, data),
               std::vector<int8_t>(rows * dim),
               std::vector<float>(rows ? rows : 1, 1.0f), {}};
    for (size_t r = 0; r < rows; ++r) {
        st.signs.appendRow(st.keys.row(r));
        longsight::quantizeInt8Into(st.keys.row(r), dim,
                                    st.kq.data() + r * dim,
                                    &st.kscales[r]);
    }
    return st;
}

/** The query group and parameters every backend runs. */
struct Case
{
    size_t dim = 0, begin = 0, end = 0, k = 0, num_queries = 0;
    int threshold = 0;
    float scale = 0.0f;
    std::vector<float> queries;    // num_queries x dim
    std::vector<uint64_t> qwords;  // num_queries x wordsPerRow
    std::vector<int8_t> q8s;       // num_queries x dim
    std::vector<float> q8_scales;  // num_queries
    std::vector<uint8_t> pass;     // reference: num_queries x span

    size_t span() const { return end - begin; }
    size_t stride() const { return span() ? span() : 1; }
    size_t outStride() const
    {
        return std::max<size_t>(std::min(k, span()), 1);
    }
};

/** One fused select driver's per-query results: out_stride entries
 *  per query, of which only the first sizes[q] are contracted. */
struct Selection
{
    std::vector<ScoredIndex> entries;
    std::vector<size_t> sizes;
    std::vector<size_t> survivors;   // SCF survivors (0 for INT8)
    std::vector<size_t> span_counts; // per span of the storage run
};

/** Everything one backend produces for a case; memcmp-able fields. */
struct Outputs
{
    std::vector<int32_t> concordance;   // query 0 over [begin, end)
    std::vector<uint32_t> scan;         // queries x stride
    std::vector<size_t> scan_counts;
    std::vector<uint64_t> bitmap;       // queries x 2
    std::vector<float> dot_at;          // query 0 over its survivors
    std::vector<float> dot_range;       // query 0 over [begin, end)
    std::vector<uint64_t> sign_reduce;  // majority over rows [begin,end)
    std::vector<uint64_t> sign_reduce_q; // majority over the query rows
    std::vector<float> quant_range;     // query 0 over [begin, end)
    std::vector<int32_t> int8_range;    // query 0 over [begin, end)
    Selection select, quant_select, int8_select;
};

bool
scoredEq(const ScoredIndex &a, const ScoredIndex &b)
{
    return a.index == b.index &&
           std::memcmp(&a.score, &b.score, sizeof(float)) == 0;
}

bool
sameSelection(const Selection &a, const Selection &b, size_t out_stride)
{
    if (a.sizes != b.sizes || a.survivors != b.survivors)
        return false;
    for (size_t q = 0; q < a.sizes.size(); ++q)
        if (!std::equal(a.entries.begin() + q * out_stride,
                        a.entries.begin() + q * out_stride + a.sizes[q],
                        b.entries.begin() + q * out_stride, scoredEq))
            return false;
    return true;
}

enum class SelectOp { Scf, Quant, Int8 };

/** Run one fused select driver for queries [q0, q0 + nq) over the
 *  spans of `st`, into those queries' rows of `sel`. Span counters are
 *  only requested for the whole group. */
void
runSelect(SelectOp op, const Case &c, const Storage &st, size_t q0,
          size_t nq, Selection &sel)
{
    const size_t wpr = st.signs.wordsPerRow();
    const size_t os = c.outStride();
    ScoredIndex *out = sel.entries.data() + q0 * os;
    size_t *sizes = sel.sizes.data() + q0;
    size_t *counts = nq == c.num_queries ? sel.span_counts.data() : nullptr;
    switch (op) {
    case SelectOp::Scf:
        longsight::batchScoreSelectMultiSpans(
            c.qwords.data() + q0 * wpr, nq, st.signs, st.spans.data(),
            st.spans.size(), c.threshold, c.queries.data() + q0 * c.dim,
            c.dim, st.keys, c.scale, c.k, out, os, sizes,
            sel.survivors.data() + q0, counts);
        break;
    case SelectOp::Quant:
        longsight::batchQuantScoreSelectMultiSpans(
            c.qwords.data() + q0 * wpr, nq, st.signs, st.spans.data(),
            st.spans.size(), c.threshold, c.queries.data() + q0 * c.dim,
            c.dim, st.kq.data(), st.kscales.data(), c.dim, c.scale, c.k,
            out, os, sizes, sel.survivors.data() + q0, counts);
        break;
    case SelectOp::Int8:
        longsight::batchInt8ScoreSelectMultiSpans(
            c.q8s.data() + q0 * c.dim, c.q8_scales.data() + q0, nq,
            st.kq.data(), st.kscales.data(), c.dim, st.spans.data(),
            st.spans.size(), c.scale, c.k, out, os, sizes, counts);
        break;
    }
}

/**
 * One select driver three ways on the active backend: the whole group
 * over the flat identity span (returned), each query alone with
 * num_queries = 1, and the whole group over the paged layout. All
 * three must agree, and the span counters must add up.
 */
Selection
selectThreeWays(SelectOp op, const char *stage, const Case &c,
                const Storage &flat, const Storage &paged)
{
    g_case.stage = stage;
    const size_t nq = c.num_queries, os = c.outStride();
    const auto fresh = [&](const Storage &st) {
        Selection s;
        s.entries.assign(nq * os, ScoredIndex{0.0f, 0});
        s.sizes.assign(nq, 0);
        s.survivors.assign(nq, 0);
        s.span_counts.assign(std::max<size_t>(st.spans.size(), 1), 0);
        return s;
    };
    Selection grouped = fresh(flat);
    runSelect(op, c, flat, 0, nq, grouped);
    Selection single = fresh(flat);
    for (size_t q = 0; q < nq; ++q)
        runSelect(op, c, flat, q, 1, single);
    check(sameSelection(grouped, single, os),
          "grouped select != per-query num_queries=1 select");
    Selection paged_sel = fresh(paged);
    runSelect(op, c, paged, 0, nq, paged_sel);
    check(sameSelection(grouped, paged_sel, os),
          "permuted-span select != identity-span select");

    size_t total = 0;
    for (size_t q = 0; q < nq; ++q)
        total += op == SelectOp::Int8 ? c.span() : grouped.survivors[q];
    check(grouped.span_counts[0] == total,
          "identity span counter != group total");
    size_t paged_total = 0;
    for (size_t s = 0; s < paged.spans.size(); ++s) {
        paged_total += paged_sel.span_counts[s];
        if (op == SelectOp::Int8)
            check(paged_sel.span_counts[s] == nq * paged.spans[s].count,
                  "INT8 span candidates != queries x span length");
    }
    check(paged_total == total, "paged span counters != group total");
    return grouped;
}

/** Run the full public kernel surface on the active backend. */
Outputs
runKernels(const Case &c, const Storage &flat, const Storage &paged)
{
    const size_t span = c.span(), stride = c.stride();
    const size_t nq = c.num_queries, dim = c.dim;
    const size_t wpr = flat.signs.wordsPerRow();
    Outputs o;

    g_case.stage = "batchConcordance";
    o.concordance.assign(span, 0);
    longsight::batchConcordance(c.qwords.data(), flat.signs, c.begin,
                                c.end, o.concordance.data());

    // Scan: grouped, against the independent reference, and against
    // one num_queries = 1 pass per query.
    g_case.stage = "batchScanMulti";
    o.scan.assign(nq * stride, 0xffffffffu);
    o.scan_counts.assign(nq, 777);
    longsight::batchScanMulti(c.qwords.data(), nq, flat.signs, c.begin,
                              c.end, c.threshold, o.scan.data(), stride,
                              o.scan_counts.data());
    std::vector<uint32_t> one(stride);
    for (size_t q = 0; q < nq; ++q) {
        size_t n = 0;
        for (size_t i = 0; i < span; ++i) {
            if (!c.pass[q * span + i])
                continue;
            check(n < o.scan_counts[q] &&
                      o.scan[q * stride + n] == c.begin + i,
                  "scan survivors != thresholded scalar concordance");
            ++n;
        }
        check(n == o.scan_counts[q],
              "scan count != thresholded scalar concordance");
        size_t n1 = 0;
        longsight::batchScanMulti(c.qwords.data() + q * wpr, 1, flat.signs,
                                  c.begin, c.end, c.threshold, one.data(),
                                  stride, &n1);
        check(n1 == n && std::equal(one.begin(), one.begin() + n,
                                    o.scan.begin() + q * stride),
              "grouped scan != per-query num_queries=1 scan");
    }

    g_case.stage = "concordanceBitmapMulti";
    const auto nkeys = static_cast<uint32_t>(std::min<size_t>(span, 128));
    o.bitmap.assign(nq * 2, ~uint64_t{0});
    longsight::concordanceBitmapMulti(c.qwords.data(), nq, flat.signs,
                                      c.begin, nkeys, c.threshold,
                                      o.bitmap.data());
    for (size_t q = 0; q < nq; ++q) {
        uint64_t ref[2] = {0, 0};
        for (size_t j = 0; j < nkeys; ++j)
            if (c.pass[q * span + j])
                ref[j >> 6] |= uint64_t{1} << (j & 63);
        check(o.bitmap[q * 2] == ref[0] && o.bitmap[q * 2 + 1] == ref[1],
              "bitmap != thresholded scalar concordance");
        uint64_t bits[2] = {~uint64_t{0}, ~uint64_t{0}};
        longsight::concordanceBitmapMulti(c.qwords.data() + q * wpr, 1,
                                          flat.signs, c.begin, nkeys,
                                          c.threshold, bits);
        check(bits[0] == ref[0] && bits[1] == ref[1],
              "grouped bitmap != per-query num_queries=1 bitmap");
    }

    g_case.stage = "batchDotScaleAt";
    o.dot_at.assign(std::max<size_t>(o.scan_counts[0], 1), 0.0f);
    longsight::batchDotScaleAt(c.queries.data(), flat.keys, o.scan.data(),
                               o.scan_counts[0], c.scale,
                               o.dot_at.data());
    o.dot_at.resize(o.scan_counts[0]);

    g_case.stage = "batchDotScaleRange";
    o.dot_range.assign(stride, 0.0f);
    longsight::batchDotScaleRange(c.queries.data(), flat.keys, c.begin,
                                  c.end, c.scale, o.dot_range.data());
    o.dot_range.resize(span);

    g_case.stage = "blockSignReduce";
    o.sign_reduce.assign(wpr, 0);
    if (span) {
        longsight::blockSignReduce(flat.signs, c.begin, c.end,
                                   o.sign_reduce.data());
        std::vector<uint64_t> raw(wpr, 0);
        longsight::blockSignReduce(flat.signs.data() + c.begin * wpr, wpr,
                                   span, raw.data());
        check(raw == o.sign_reduce,
              "SignMatrix and raw blockSignReduce disagree");
    }
    // Raw flavour over the packed query rows (num_queries >= 1), so
    // odd/even row counts and the tie rule are always exercised.
    o.sign_reduce_q.assign(wpr, 0);
    longsight::blockSignReduce(c.qwords.data(), wpr, nq,
                               o.sign_reduce_q.data());

    g_case.stage = "batchQuantDotRange";
    o.quant_range.assign(stride, 0.0f);
    longsight::batchQuantDotRange(c.queries.data(), flat.kq.data(),
                                  flat.kscales.data(), dim, c.begin, c.end,
                                  c.scale, o.quant_range.data());
    o.quant_range.resize(span);

    g_case.stage = "batchInt8DotRange";
    o.int8_range.assign(stride, 0);
    longsight::batchInt8DotRange(c.q8s.data(), flat.kq.data(), dim,
                                 c.begin, c.end, o.int8_range.data());
    o.int8_range.resize(span);

    o.select = selectThreeWays(SelectOp::Scf, "batchScoreSelectMultiSpans",
                               c, flat, paged);
    o.quant_select =
        selectThreeWays(SelectOp::Quant, "batchQuantScoreSelectMultiSpans",
                        c, flat, paged);
    o.int8_select =
        selectThreeWays(SelectOp::Int8, "batchInt8ScoreSelectMultiSpans",
                        c, flat, paged);
    check(o.select.survivors == o.scan_counts &&
              o.quant_select.survivors == o.scan_counts,
          "select survivor counts != scan counts");
    return o;
}

template <class T>
void
checkEq(const std::vector<T> &ref, const std::vector<T> &got,
        const char *what)
{
    check(ref.size() == got.size(), what);
    // data() of an empty vector may be null, and memcmp's arguments
    // are declared nonnull even for a zero length (UBSan flags it).
    check(ref.empty() ||
              std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(T)) == 0,
          what);
}

void
compareOutputs(const Outputs &ref, const Outputs &got, size_t out_stride)
{
    g_case.stage = "cross-backend-compare";
    checkEq(ref.concordance, got.concordance, "concordance differs");
    checkEq(ref.scan_counts, got.scan_counts, "survivor counts differ");
    // Survivor lists are contracted per query up to counts[q]; beyond
    // that is scratch (the SIMD backends' branchless store-then-advance
    // emission writes one slot past the live list).
    const size_t nq = ref.scan_counts.size();
    const size_t stride = nq ? ref.scan.size() / nq : 0;
    for (size_t q = 0; q < nq; ++q)
        check(std::equal(ref.scan.begin() + q * stride,
                         ref.scan.begin() + q * stride + ref.scan_counts[q],
                         got.scan.begin() + q * stride),
              "survivor set differs");
    checkEq(ref.bitmap, got.bitmap, "bitmaps differ");
    checkEq(ref.dot_at, got.dot_at, "dotAt scores differ");
    checkEq(ref.dot_range, got.dot_range, "dotRange scores differ");
    checkEq(ref.sign_reduce, got.sign_reduce,
            "block sign-reduce signature differs");
    checkEq(ref.sign_reduce_q, got.sign_reduce_q,
            "query-rows sign-reduce signature differs");
    checkEq(ref.quant_range, got.quant_range,
            "quant dotRange scores differ");
    checkEq(ref.int8_range, got.int8_range, "int8 dotRange values differ");
    check(sameSelection(ref.select, got.select, out_stride) &&
              ref.select.span_counts == got.select.span_counts,
          "score-select results differ");
    check(sameSelection(ref.quant_select, got.quant_select, out_stride) &&
              ref.quant_select.span_counts ==
                  got.quant_select.span_counts,
          "quant score-select results differ");
    check(sameSelection(ref.int8_select, got.int8_select, out_stride) &&
              ref.int8_select.span_counts == got.int8_select.span_counts,
          "int8 score-select results differ");
}

void
runCase(const uint8_t *data, size_t size)
{
    Input in(data, size);
    const size_t dim = in.range(1, 200);
    const size_t rows = in.range(0, 260);
    size_t begin = in.range(0, rows);
    size_t end = in.range(begin, rows);
    // Threshold straddles the meaningful range plus both saturations.
    const int threshold =
        static_cast<int>(in.range(0, dim + 2)) - 1;
    const size_t k = in.range(1, rows + 2); // k > 0 is a precondition
    // Beyond kMaxScanQueries so the drivers' chunking is exercised.
    const size_t num_queries =
        in.range(1, longsight::kMaxScanQueries + 4);
    const float scale = in.smallFloat();

    g_case.dim = dim;
    g_case.rows = rows;
    g_case.begin = begin;
    g_case.end = end;
    g_case.threshold = threshold;
    g_case.k = k;
    g_case.queries = num_queries;

    std::vector<float> key_data(rows * dim);
    for (auto &v : key_data)
        v = in.smallFloat();
    const Storage flat = [&] {
        Storage st = makeStorage(dim, key_data);
        st.spans = {ScanSpan{begin, end - begin, begin}};
        return st;
    }();

    Case c;
    c.dim = dim;
    c.begin = begin;
    c.end = end;
    c.threshold = threshold;
    c.k = k;
    c.num_queries = num_queries;
    c.scale = scale;
    c.queries.resize(num_queries * dim);
    for (auto &v : c.queries)
        v = in.smallFloat();
    const size_t wpr = flat.signs.wordsPerRow();
    c.qwords.resize(num_queries * wpr);
    c.q8s.resize(num_queries * dim);
    c.q8_scales.assign(num_queries, 1.0f);
    for (size_t q = 0; q < num_queries; ++q) {
        longsight::packSigns(c.queries.data() + q * dim, dim,
                             c.qwords.data() + q * wpr);
        longsight::quantizeInt8Into(c.queries.data() + q * dim, dim,
                                    c.q8s.data() + q * dim,
                                    &c.q8_scales[q]);
    }

    // Paged twin of [begin, end): split at random into up to four
    // pieces, stored in a random physical order with a junk row before
    // each piece, so a wrong physical offset or logical remap in a span
    // driver changes its result.
    std::vector<ScanSpan> pieces;
    for (size_t at = begin; at < end;) {
        const size_t left = end - at;
        const size_t take = pieces.size() >= 3 ? left : in.range(1, left);
        pieces.push_back(ScanSpan{0, take, at});
        at += take;
    }
    std::vector<size_t> order(pieces.size());
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[in.range(0, i - 1)]);
    std::vector<float> paged_data;
    for (size_t p : order) {
        for (size_t d = 0; d < dim; ++d)
            paged_data.push_back(in.smallFloat());
        pieces[p].physBegin = paged_data.size() / dim;
        const float *first = key_data.data() + pieces[p].logicalBase * dim;
        paged_data.insert(paged_data.end(), first,
                          first + pieces[p].count * dim);
    }
    Storage paged = makeStorage(dim, paged_data);
    paged.spans = std::move(pieces);

    // Independent scan reference: the scalar batchConcordance of every
    // query, thresholded.
    const KernelBackend prev = longsight::activeKernelBackend();
    longsight::setKernelBackend(KernelBackend::Scalar);
    const size_t span = end - begin;
    c.pass.assign(num_queries * span, 0);
    std::vector<int32_t> conc(span);
    for (size_t q = 0; q < num_queries; ++q) {
        longsight::batchConcordance(c.qwords.data() + q * wpr, flat.signs,
                                    begin, end, conc.data());
        for (size_t i = 0; i < span; ++i)
            c.pass[q * span + i] = conc[i] >= threshold;
    }

    Outputs ref;
    bool have_ref = false;
    for (KernelBackend b : availableBackends()) {
        g_case.backend = longsight::kernelBackendName(b);
        longsight::setKernelBackend(b);
        Outputs got = runKernels(c, flat, paged);
        if (!have_ref) {
            ref = std::move(got);
            have_ref = true;
        } else {
            compareOutputs(ref, got, c.outStride());
        }
    }
    longsight::setKernelBackend(prev);
}

} // namespace

#if defined(LONGSIGHT_LIBFUZZER)

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    runCase(data, size);
    return 0;
}

#else // standalone driver

namespace {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int
replayFile(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::vector<uint8_t> buf;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    std::fclose(f);
    g_case = CaseInfo{};
    runCase(buf.data(), buf.size());
    std::printf("replayed %s (%zu bytes): OK\n", path, buf.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 0x10095117ull; // default: fixed, reproducible
    long iters = 2000;
    double seconds = 0.0;
    std::vector<const char *> replay;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 0);
        else if (a == "--iters")
            iters = std::strtol(next(), nullptr, 0);
        else if (a == "--seconds")
            seconds = std::strtod(next(), nullptr);
        else if (a == "--help" || a == "-h") {
            std::printf("usage: %s [--seed S] [--iters N] "
                        "[--seconds T] [case-file...]\n",
                        argv[0]);
            return 0;
        } else {
            replay.push_back(argv[i]);
        }
    }

    for (const char *path : replay)
        if (int rc = replayFile(path))
            return rc;
    if (!replay.empty())
        return 0;

    size_t backends = availableBackends().size();
    std::printf("kernel-parity fuzz: %zu backend(s):", backends);
    for (KernelBackend b : availableBackends())
        std::printf(" %s", longsight::kernelBackendName(b));
    std::printf("\n");
    if (backends < 2)
        std::printf("note: only one backend available; checking "
                    "internal (reference, grouped-vs-single, "
                    "paged-vs-flat) parity only\n");

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    long done = 0;
    uint64_t state = seed;
    std::vector<uint8_t> buf;
    while (seconds > 0.0 ? elapsed() < seconds : done < iters) {
        uint64_t case_seed = splitmix64(state);
        g_case = CaseInfo{};
        g_case.seed = case_seed;
        // Size varies so short (truncated-input) cases are covered too.
        buf.resize(64 + case_seed % 3072);
        uint64_t s = case_seed;
        for (size_t i = 0; i < buf.size(); i += 8) {
            uint64_t w = splitmix64(s);
            size_t nb = std::min<size_t>(8, buf.size() - i);
            std::memcpy(buf.data() + i, &w, nb);
        }
        runCase(buf.data(), buf.size());
        ++done;
    }
    std::printf("kernel-parity fuzz: OK (%ld cases, %.1fs, seed "
                "0x%" PRIx64 ")\n",
                done, elapsed(), seed);
    return 0;
}

#endif // LONGSIGHT_LIBFUZZER
