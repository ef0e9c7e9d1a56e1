/**
 * @file
 * Runtime-dispatched batch kernels for the SCF hot path: sign
 * concordance over whole SignMatrix bursts (the software twin of the
 * PFU's 128-key popcount sweep), batched survivor scoring
 * (query . key dot products with a fused scale), and INT8 scoring
 * over the quantized key arenas — mixed float x int8 survivor scoring
 * (the dotQuantized contract) and exact int8 x int8 estimation dots
 * (scalar reference, AVX2 maddubs, AVX-512 VNNI vpdpbusd fast paths).
 *
 * Three backends share one contract and are selected once at startup:
 *
 *  - scalar: portable std::popcount / double-accumulation loops;
 *  - avx2:   vpshufb nibble-LUT popcount, 4 packed rows per vector,
 *            4-key transposed dot products (x86-64, detected via
 *            __builtin_cpu_supports);
 *  - neon:   cnt/addv popcount (aarch64, compile-time).
 *
 * Every backend is BIT-IDENTICAL: concordance is integer math, and
 * the dot kernels accumulate each key's products in double precision
 * in strictly ascending dimension order (no FMA, no reassociation),
 * which is exactly what the scalar fallback and the pre-existing
 * linalg dot() compute. Survivor sets, scores, and therefore top-k
 * selections do not depend on the backend; tests and the bench-smoke
 * CI job enforce this.
 *
 * There is one public driver per kernel family, in the shape the
 * production callers use: a query GROUP (the GQA heads that share one
 * KV head, plus optionally queries from other batched requests pinned
 * to the same KV head) over a list of storage spans. Each packed sign
 * row (and, in the fused select drivers, each survivor key tile) is
 * loaded once and run through every query's concordance test and
 * score-select heap before the stream advances. A single query is
 * num_queries = 1; a contiguous range is one identity span.
 *
 * The fused select drivers stream survivors tile by tile from the
 * concordance scan straight through scoring into bounded top-k heaps,
 * never materializing the full survivor or score vectors. They are
 * backend-agnostic — they compose the dispatched scan and dot ops — so
 * AVX2, NEON and scalar all get the fused path with identical results
 * by construction.
 *
 * The backend can be forced (tests, benchmarks, A/B timing) with
 * setKernelBackend() or the LONGSIGHT_KERNELS=scalar|avx2|neon
 * environment variable.
 */

#ifndef LONGSIGHT_TENSOR_KERNELS_HH
#define LONGSIGHT_TENSOR_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "tensor/sign_matrix.hh"
#include "tensor/tensor.hh"
#include "tensor/topk_heap.hh"

namespace longsight {

/** Available kernel implementations. */
enum class KernelBackend { Scalar, Avx2, Neon };

/** Human-readable backend name ("scalar", "avx2", "neon"). */
const char *kernelBackendName(KernelBackend b);

/** Whether a backend is compiled in AND supported by this CPU. */
bool kernelBackendAvailable(KernelBackend b);

/** Backend the dispatcher is currently routing through. */
KernelBackend activeKernelBackend();

/** Best backend available on this machine (what startup picks). */
KernelBackend detectKernelBackend();

/** Force a backend (must be available). Used by parity tests and the
 *  scalar-vs-SIMD benchmark; not intended to be switched while other
 *  threads are inside a kernel. */
void setKernelBackend(KernelBackend b);

/**
 * Concordance of one packed query (see packSigns) with every row in
 * [begin, end): out[i - begin] = dim - popcount(row_i XOR query).
 */
void batchConcordance(const uint64_t *query_words, const SignMatrix &m,
                      size_t begin, size_t end, int32_t *out);

/**
 * Pack the sign pattern of v[0..dim) into words ((dim + 63) / 64 of
 * them, fully overwritten): bit i set iff v[i] >= 0. Exactly the
 * SignBits packing, for callers that keep packed queries in scratch
 * memory instead of constructing a SignBits (which allocates).
 */
void packSigns(const float *v, size_t dim, uint64_t *words);

/**
 * Block signature: per-bit majority vote over the packed sign rows
 * [begin, end) of m. Bit b of out is set iff at least half of the
 * rows have bit b set (a tie rounds toward set, mirroring packSigns'
 * v >= 0 convention). out holds m.wordsPerRow() words, fully
 * overwritten; bits past m.dim() stay zero because every packed row
 * keeps them zero. Pure integer math — all backends bit-identical.
 * Requires begin < end.
 */
void blockSignReduce(const SignMatrix &m, size_t begin, size_t end,
                     uint64_t *out);

/**
 * Raw flavour over caller storage: `rows` packed rows of
 * words_per_row words each, laid out back to back (the scratch layout
 * packSigns fills). Identical result to the SignMatrix flavour.
 */
void blockSignReduce(const uint64_t *signs, size_t words_per_row,
                     size_t rows, uint64_t *out);

/**
 * Survivor scoring: out[j] = (q . keys[indices[j]]) * scale for
 * j in [0, count), accumulated in double precision per key in
 * ascending dimension order (bit-identical to linalg dot()).
 */
void batchDotScaleAt(const float *q, const Matrix &keys,
                     const uint32_t *indices, size_t count, float scale,
                     float *out);

/** Range flavour: out[i - begin] = (q . keys[i]) * scale. */
void batchDotScaleRange(const float *q, const Matrix &keys, size_t begin,
                        size_t end, float scale, float *out);

/** Queries one multi-query kernel call serves at most; the drivers
 *  below chunk larger groups transparently (each chunk is one
 *  streaming pass). Matches the PFU's per-block query capacity. */
inline constexpr size_t kMaxScanQueries = 16;

/**
 * Multi-query SCF survivor scan over rows [begin, end): query q's
 * packed sign words live at query_words + q * m.wordsPerRow() (see
 * packSigns); its survivors — the rows whose batchConcordance reaches
 * `threshold` — land at survivors + q * stride in ascending row order
 * and counts[q] receives how many. `stride` must be >= end - begin and
 * `counts` holds num_queries entries (zeroed by this call). All
 * queries in a chunk share one pass over the sign rows; a single
 * query is num_queries = 1.
 */
void batchScanMulti(const uint64_t *query_words, size_t num_queries,
                    const SignMatrix &m, size_t begin, size_t end,
                    int threshold, uint32_t *survivors, size_t stride,
                    size_t *counts);

/**
 * PFU-shaped multi-query scan: out + q * 2 receives query q's 128-bit
 * survivor bitmap over keys [begin, begin + num_keys) (num_keys <=
 * 128): bit j of out[q * 2] (keys 0..63) or out[q * 2 + 1] (keys
 * 64..127) is set iff row begin + j passes the threshold. One pass
 * over the block's sign rows serves every query.
 */
void concordanceBitmapMulti(const uint64_t *query_words,
                            size_t num_queries, const SignMatrix &m,
                            size_t begin, uint32_t num_keys,
                            int threshold, uint64_t *out);

/**
 * One contiguous run of physical sign/key rows backing a logical token
 * range — the unit a KV cache hands the select drivers. Storage rows
 * [physBegin, physBegin + count) hold logical tokens [logicalBase,
 * logicalBase + count). A contiguous range [begin, end) is the single
 * identity span {begin, end - begin, begin}, which is what a flat
 * cache emits. Span lists must ascend in logical order so candidates
 * reach the heaps in logical order.
 */
struct ScanSpan
{
    size_t physBegin = 0;
    size_t count = 0;
    size_t logicalBase = 0;
};

/**
 * Fused multi-query scan -> score -> select over a span list — the
 * decode hot path. Every row whose sign concordance with a query
 * reaches `threshold` is scored ((q . key_row) * scale, standard
 * double accumulation) and offered to that query's bounded top-k
 * heap. Survivors stream through in fixed-size tiles; the survivor
 * index and score vectors are never materialized, and candidates that
 * cannot beat the current k-th entry are rejected with one compare.
 *
 * Query q's packed signs are at query_words + q * signs.wordsPerRow(),
 * its float vector at queries + q * query_stride, its result heap at
 * out + q * out_stride (out_stride >= min(k, total span tokens)), and
 * out_sizes[q] receives its entry count, sorted best-first (score
 * descending, index ascending on ties). The scan and dot kernels see
 * each span's physical rows (signs and keys share the storage layout);
 * heap indices are LOGICAL token ids. Because spans ascend logically,
 * every selection is element-identical to batchScanMulti +
 * batchDotScaleAt + topkSelect over the equivalent flat layout, on
 * every backend — block size and query grouping cannot change a
 * result. survivor_counts[q] (when non-null) receives query q's SCF
 * survivor total; span_survivors[s] (when non-null) receives span s's
 * survivor total summed over the group (the per-block counter that
 * drives tier promotion/eviction).
 */
void batchScoreSelectMultiSpans(
    const uint64_t *query_words, size_t num_queries,
    const SignMatrix &signs, const ScanSpan *spans, size_t num_spans,
    int threshold, const float *queries, size_t query_stride,
    const Matrix &keys, float scale, size_t k, ScoredIndex *out,
    size_t out_stride, size_t *out_sizes,
    size_t *survivor_counts = nullptr, size_t *span_survivors = nullptr);

/**
 * Mixed-precision scoring over an INT8 key arena rows [begin, end):
 * out[i - begin] = float(acc * scales[i]) * post_scale, where acc is
 * the ascending double-precision sum of q[d] * int8 key row d (the
 * dotQuantized contract). `keys` is a row-major arena of dim int8s per
 * row with one float scale per row — exactly the layout
 * KvCache::enableKeyQuantization / KvBlockPool::ensureQuantized
 * maintain. post_scale folds the attention scale into the same float
 * multiply the unfused scoreKey path performs; pass 1.0f for the bare
 * dotQuantized result (x * 1.0f is exact). Bit-identical across
 * backends.
 */
void batchQuantDotRange(const float *q, const int8_t *keys,
                        const float *scales, size_t dim, size_t begin,
                        size_t end, float post_scale, float *out);

/**
 * Exact INT8 x INT8 batch dot over arena rows [begin, end):
 * out[i - begin] = sum_d q[d] * key_row_i[d] in int32. Pure integer
 * math — overflow-free for dim <= 2^17 at the +-127 range
 * quantizeInt8Into produces — so every backend (scalar, AVX2 maddubs,
 * AVX-512 VNNI) is bit-identical by construction. This is the INT8
 * filter's estimation primitive: both query and key are quantized, and
 * the float estimate float(out[j]) * (q_scale * key_scale) is derived
 * by the callers under one shared contract.
 */
void batchInt8DotRange(const int8_t *q, const int8_t *keys, size_t dim,
                       size_t begin, size_t end, int32_t *out);

/**
 * batchScoreSelectMultiSpans with quantized scoring: survivors are
 * scored against the INT8 key arena (batchQuantDotRange contract:
 * float(acc * scales[row]) * post_scale) instead of the float keys.
 * Sign rows, arena rows and scales share the physical layout; heap
 * indices are logical token ids. Per query the selection is
 * element-identical to scanning and scoring the equivalent flat
 * layout, on every backend.
 */
void batchQuantScoreSelectMultiSpans(
    const uint64_t *query_words, size_t num_queries,
    const SignMatrix &signs, const ScanSpan *spans, size_t num_spans,
    int threshold, const float *queries, size_t query_stride,
    const int8_t *keys, const float *scales, size_t dim,
    float post_scale, size_t k, ScoredIndex *out, size_t out_stride,
    size_t *out_sizes, size_t *survivor_counts = nullptr,
    size_t *span_survivors = nullptr);

/**
 * Fused INT8-estimation score -> select over a span list: EVERY row is
 * scored with the exact integer dot (batchInt8DotRange) and the float
 * estimate float(idot) * ((q_scale * post_scale) * scales[row]) — one
 * fixed multiplication order, so selections are deterministic and
 * backend-independent — then offered to a bounded top-k heap. Query
 * q's int8 vector lives at q8s + q * dim with scale q_scales[q]; its
 * heap at out + q * out_stride (capacity >= min(k, total span tokens))
 * and out_sizes[q] receives the entry count (sorted best-first). Heap
 * indices are logical token ids; estimation reads the spans' physical
 * arena rows. When span_candidates is non-null, span_candidates[s]
 * receives num_queries * spans[s].count — every row is a candidate
 * under estimation, the analogue of the SCF span survivor counter for
 * residency accounting. This is the INT8 FilterBackend's candidate
 * selector: where SCF scans 1-bit signatures and scores survivors,
 * this estimates 8-bit scores for every row and keeps the top k.
 */
void batchInt8ScoreSelectMultiSpans(
    const int8_t *q8s, const float *q_scales, size_t num_queries,
    const int8_t *keys, const float *scales, size_t dim,
    const ScanSpan *spans, size_t num_spans, float post_scale, size_t k,
    ScoredIndex *out, size_t out_stride, size_t *out_sizes,
    size_t *span_candidates = nullptr);

namespace detail {

/** Raw-pointer kernel table one backend fills in. */
struct KernelOps
{
    /** out[r] = dim - popcount(signs_row_r XOR q), rows rows. */
    void (*concordance)(const uint64_t *q, const uint64_t *signs,
                        size_t words_per_row, size_t rows, int dim,
                        int32_t *out);
    /** out[j] = float(sum_d q[d]*key_row[d]) * scale; row j is
     *  keys + idx[j]*stride when idx, keys + (first+j)*stride else. */
    void (*dotAt)(const float *q, const float *keys, size_t stride,
                  size_t dim, const uint32_t *idx, size_t first,
                  size_t count, float scale, float *out);
    /** One streaming pass over `rows` sign rows serving num_queries
     *  (<= kMaxScanQueries) queries: query q's words start at
     *  qs + q * words_per_row, its survivors append at
     *  out + q * stride + counts[q], and counts[q] advances in place
     *  (callers zero counts before the first tile, so tiles
     *  accumulate). Per query identical to thresholding
     *  concordance(): row r passes iff its concordance >= threshold. */
    void (*scanMulti)(const uint64_t *qs, size_t num_queries,
                      const uint64_t *signs, size_t words_per_row,
                      size_t rows, int dim, int threshold, uint32_t base,
                      uint32_t *out, size_t stride, size_t *counts);
    /** One pass over rows <= 128 sign rows filling out + q * 2 with
     *  query q's survivor bitmap: bit r of out[q * 2 + r / 64] is set
     *  iff row r passes (out fully overwritten). Per query identical to
     *  thresholding concordance(). */
    void (*bitmapMulti)(const uint64_t *qs, size_t num_queries,
                        const uint64_t *signs, size_t words_per_row,
                        size_t rows, int dim, int threshold,
                        uint64_t *out);
    /** Per-bit majority over `rows` packed sign rows: bit b of out is
     *  set iff 2 * count_set(b) >= rows (ties round to set). out holds
     *  words_per_row words, fully overwritten. rows >= 1. */
    void (*signReduce)(const uint64_t *signs, size_t words_per_row,
                       size_t rows, uint64_t *out);
    /** Mixed float-query x INT8-key scoring: out[j] = float(acc *
     *  scales[row]) * post_scale with acc the ascending double sum of
     *  q[d] * key_row[d]; row is keys + idx[j]*stride when idx,
     *  keys + (first+j)*stride else (scales indexed the same way).
     *  Exactly dotQuantized's rounding followed by one float multiply
     *  — every backend preserves this order bit-for-bit. */
    void (*quantDotAt)(const float *q, const int8_t *keys,
                       const float *scales, size_t stride, size_t dim,
                       const uint32_t *idx, size_t first, size_t count,
                       float post_scale, float *out);
    /** Exact int32 dot of an int8 query against the int8 key rows
     *  keys + (first+j)*stride, j < count. Integer math — backends are
     *  free to reassociate (maddubs / vpdpbusd) because the result is
     *  exact either way. */
    void (*int8DotAt)(const int8_t *q, const int8_t *keys, size_t stride,
                      size_t dim, size_t first, size_t count,
                      int32_t *out);
};

/**
 * Carry-save majority vote down ONE word column: counts bit
 * occupancy across `rows` packed rows in bit-sliced binary planes and
 * compares each of the 64 bit positions against (rows + 1) / 2
 * without ever materializing per-bit integers. Shared by the SIMD
 * backends for word columns left over after their vector width; the
 * scalar backend deliberately uses a naive per-bit counting loop
 * instead, so kernel-parity fuzzing exercises this logic against an
 * independent oracle.
 */
inline uint64_t
signReduceColumnCsa(const uint64_t *signs, size_t words_per_row,
                    size_t rows, size_t col)
{
    // planes[k] holds bit k of each position's running count.
    uint64_t planes[32] = {};
    size_t used = 0;
    for (size_t r = 0; r < rows; ++r) {
        uint64_t carry = signs[r * words_per_row + col];
        for (size_t k = 0; carry != 0; ++k) {
            const uint64_t sum = planes[k] ^ carry;
            carry = planes[k] & carry;
            planes[k] = sum;
            if (k >= used)
                used = k + 1;
        }
    }
    // Bit-sliced compare count >= t, walking planes MSB-first: a
    // position is decided greater the first time its count bit beats
    // t's bit while still tied; positions still tied at the end are
    // equal, and equal passes (>=).
    const uint64_t t = (rows + 1) / 2;
    // Every count fits in `used` planes, so count < 2^used; when t
    // needs a higher bit, no position can reach it.
    if ((t >> used) != 0)
        return 0;
    uint64_t ge = 0;
    uint64_t eq = ~uint64_t{0};
    for (size_t k = used; k-- > 0;) {
        const uint64_t plane = planes[k];
        if ((t >> k) & 1) {
            eq &= plane;
        } else {
            ge |= eq & plane;
            eq &= ~plane;
        }
    }
    return ge | eq;
}

/** nullptr when the backend is not compiled into this binary. */
const KernelOps *scalarKernelOps();
const KernelOps *avx2KernelOps();
const KernelOps *neonKernelOps();

} // namespace detail

} // namespace longsight

#endif // LONGSIGHT_TENSOR_KERNELS_HH
