/**
 * @file
 * LongSightAttn — the paper's hybrid dense-sparse attention module
 * (§5, §6). For each query and KV head:
 *
 *   1. *Dense part*: attention-sink tokens (the first few, §8.1.3) and
 *      a sliding window of the W most recent tokens are always
 *      attended, at full precision (on the GPU in the real system).
 *   2. *Sparse part*: the remaining middle region is filtered with
 *      Sign-Concordance Filtering in (ITQ-rotated) sign space,
 *      survivors are scored with full-precision dot products, and the
 *      top-k survivors are selected (on DReX in the real system).
 *   3. A single softmax over the combined candidate set produces the
 *      output (GPU-side step 5-7 of Figure 2b).
 *
 * This class is the functional reference: the DReX device model must
 * produce bit-identical selections, and the exactness property
 * (threshold 0 + unbounded k == dense attention) is tested against it.
 */

#ifndef LONGSIGHT_CORE_HYBRID_ATTENTION_HH
#define LONGSIGHT_CORE_HYBRID_ATTENTION_HH

#include <cstdint>
#include <vector>

#include "core/filter_backend.hh"
#include "core/filter_stats.hh"
#include "core/kv_cache.hh"

namespace longsight {

/**
 * Tunable parameters of hybrid attention (§8.1.3 defaults).
 */
struct LongSightConfig
{
    uint32_t windowSize = 1024; //!< dense sliding window W
    uint32_t topK = 1024;       //!< k, per KV head
    uint32_t sinkTokens = 16;   //!< attention-sink prefix tokens
    int defaultThreshold = 0;   //!< SCF threshold when not set per head

    /**
     * Score SCF survivors against INT8-quantized keys (halves the
     * NMA's per-survivor fetch). Selection may differ slightly from
     * full precision; the combined softmax on the GPU still uses
     * full-precision keys. Requires KvCache::enableKeyQuantization().
     */
    bool quantizedScoring = false;

    /**
     * Candidate filter family for the sparse middle region (see
     * core/filter_backend.hh). FilterKind::Scf is the paper's
     * pipeline and reproduces the pre-pluggable behaviour
     * bit-exactly; Int8 and Centroid are the estimation-family
     * alternatives the Pareto harness sweeps against it.
     */
    FilterKind filter = FilterKind::Scf;

    /** Centroid backend: logical tokens summarized per block. */
    uint32_t centroidBlockTokens = 128;

    /** Centroid backend: fraction of blocks descended into. */
    double centroidKeepFraction = 0.25;

    /** Maximum k the DReX NMA hardware supports (§7.2). */
    static constexpr uint32_t kMaxHardwareTopK = 1024;
};

/**
 * Result of one hybrid attention evaluation for a single query head.
 */
struct HeadAttentionResult
{
    std::vector<float> output;      //!< headDim-long attention output
    std::vector<uint32_t> attended; //!< sorted global token indices used
    uint64_t sparseRaw = 0;         //!< sparse-region size
    uint64_t sparseSurvivors = 0;   //!< keys passing SCF
    uint64_t sparseSelected = 0;    //!< top-k selections
    bool usedSparse = false;        //!< context long enough to offload
};

/**
 * Hybrid dense-sparse attention over per-head KvCaches.
 */
class LongSightAttn
{
  public:
    /**
     * @param cfg hybrid parameters
     * @param num_kv_heads KV-head count (thresholds are per KV head)
     */
    LongSightAttn(LongSightConfig cfg, uint32_t num_kv_heads);

    const LongSightConfig &config() const { return cfg_; }
    uint32_t numKvHeads() const { return numKvHeads_; }

    /** Per-KV-head SCF threshold access. */
    void setThreshold(uint32_t kv_head, int threshold);
    void setAllThresholds(const std::vector<int> &thresholds);
    int threshold(uint32_t kv_head) const;

    /**
     * Evaluate hybrid attention for one query against one KV head's
     * cache. The query is a post-RoPE headDim vector (queries of all
     * heads in a GQA group use the same cache and threshold).
     */
    HeadAttentionResult computeHead(const std::vector<float> &q,
                                    const KvCache &cache,
                                    uint32_t kv_head) const;

    /**
     * computeHead into an existing result — the decode hot-path form.
     * `q` is a raw headDim span; `r`'s vectors are cleared and refilled
     * in place (their capacity is reused, so repeated calls on the
     * same result object are heap-allocation-free). All intermediate
     * buffers live in the calling thread's scratch arena; the SCF →
     * score → select stage runs through the fused
     * batchScoreSelectMultiSpans kernel (one query, the cache's spans)
     * without materializing survivor or score vectors.
     */
    void computeHeadInto(const float *q, const KvCache &cache,
                         uint32_t kv_head, HeadAttentionResult &r) const;

    /**
     * Query-group form: evaluate num_queries queries that share one KV
     * head's cache (the GQA group, or any batch of queries pinned to
     * this KV head) in ONE pass over the cache. Query g's headDim
     * vector is queries + g * query_stride; its result lands in rs[g].
     * The sparse region's packed sign rows and survivor key tiles
     * stream through every query's concordance test and top-k heap
     * together (batchScoreSelectMultiSpans), so the cache is read once for
     * the whole group instead of once per query — per query, results
     * are bit-identical to computeHeadInto.
     */
    void computeGroupInto(const float *queries, size_t query_stride,
                          uint32_t num_queries, const KvCache &cache,
                          uint32_t kv_head, HeadAttentionResult *rs) const;

    /** Fold a result's counts into running filter statistics. */
    static void recordStats(const HeadAttentionResult &r, FilterStats &fs);

    /**
     * Token ranges of the dense part for a context of length n:
     * [0, sinks) and [win_start, n). The sparse region is
     * [sinks, win_start); empty when the context fits densely.
     */
    void densePartition(size_t n, size_t &sinks, size_t &win_start) const;

  private:
    LongSightConfig cfg_;
    uint32_t numKvHeads_;
    std::vector<int> thresholds_;
};

} // namespace longsight

#endif // LONGSIGHT_CORE_HYBRID_ATTENTION_HH
