/**
 * @file
 * Correctness checks of the host benchmark. Every reference here is
 * computed from plain row-major arrays with straightforward loops and
 * nothing from the LongSight library, so a check cannot inherit a
 * fault of the code it checks. selftest.cc feeds each check a
 * deliberately perturbed result and shows that it rejects it.
 */

#ifndef HOSTBENCH_CHECKS_HH
#define HOSTBENCH_CHECKS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hostbench {

/** Packed sign words per row of `dim` floats. */
inline size_t signWords(size_t dim) { return (dim + 63) / 64; }

/** Bit i of out set iff v[i] >= 0 (out: signWords(dim) words). */
void packSignsRef(const float *v, size_t dim, uint64_t *out);

/**
 * Signs of the ITQ-rotated vector x^T R (R row-major, dim x dim),
 * accumulated in float in ascending row order. A component whose
 * magnitude is within rounding of zero (|y| <= 1e-5 * sum |x_i R_ij|)
 * has no well-defined sign; there the bit is taken from `fallback`
 * (the stored sign row) and `ambiguous` is incremented.
 */
void rotatedSignsRef(const float *x, const float *rot, size_t dim,
                     const uint64_t *fallback, uint64_t *out,
                     size_t &ambiguous);

/** One brute-force sign-concordance -> dot -> top-k problem. */
struct TopkProblem
{
    const float *keys = nullptr;      //!< row-major, dim floats per row
    const uint64_t *keySigns = nullptr; //!< signWords(dim) per row
    size_t dim = 0;
    size_t begin = 0; //!< first row of the sparse region
    size_t end = 0;   //!< one past its last row
    const float *query = nullptr;
    const uint64_t *querySigns = nullptr;
    float scale = 1.0f;
    int threshold = 0; //!< keep rows with dim - popcount(xor) >= this
    size_t k = 0;
};

/**
 * Rows passing the concordance threshold, scored as
 * float(double-accumulated q . key) * scale and ranked best-first
 * (score descending, row ascending on ties); the first k rows.
 * survivors (optional) receives the pass count.
 */
std::vector<uint32_t> bruteTopK(const TopkProblem &p,
                                size_t *survivors = nullptr);

/** Same set of rows (order within the top-k is not compared: the
 *  combine step sorts the selection by token index anyway). */
bool topkMatches(std::vector<uint32_t> expected, std::vector<uint32_t> got);

/** Block-sparse prompt-pass parameters the reference recomputes. */
struct PromptPassShape
{
    size_t blockTokens = 128;
    size_t sinkTokens = 16;
    size_t windowTokens = 512;
    int threshold = 0;
};

/**
 * Attended token list of prompt row `row` (self-queries: queries are
 * the key rows) over a prompt of `prompt` rows: sink blocks, the older
 * blocks whose majority-sign signature concordance with the row's
 * Q-block signature reaches the threshold, and the forced local window
 * up to the row itself. Ascending.
 */
std::vector<uint32_t> promptAttended(const float *keys, size_t dim,
                                     size_t prompt,
                                     const PromptPassShape &shape,
                                     size_t row);

/** Sum over every prompt row of its attended-token count. */
uint64_t promptAttendedTotal(const float *keys, size_t dim, size_t prompt,
                             const PromptPassShape &shape);

/** A prompt pass's attended and dense token counts against the
 *  recomputed selection's total and P(P+1)/2. */
bool promptCountsHold(uint64_t attended, uint64_t dense, const float *keys,
                      size_t dim, size_t prompt,
                      const PromptPassShape &shape);

/** Plain double-precision softmax(q . K[idx] * scale) . V[idx]. */
std::vector<double> softmaxRowRef(const float *query, const float *keys,
                                  const float *values, size_t dim,
                                  const std::vector<uint32_t> &idx,
                                  float scale);

/** |got - ref| <= 1e-4 * (1 + |ref|) element-wise. */
bool rowMatches(const std::vector<double> &ref, const float *got);

/** Properties a decode step of the hybrid pipeline must have. */
struct DecodeLedger
{
    size_t prompt = 0;
    size_t steps = 0;
    size_t context = 0;      //!< contextLength() after the steps
    size_t window = 0;       //!< W
    size_t granularity = 0;  //!< flush group size
    size_t flushed = 0;      //!< flushedTokens() after the steps
    size_t flushedAtPrompt = 0; //!< flushedTokens() before the steps
    uint64_t stepFlushSum = 0;  //!< sum of per-step tokensFlushed
    uint64_t headsPerToken = 0; //!< layers x KV heads
    double minMass = 1.0;    //!< min over steps of minRetainedMass
};

/** context == prompt + steps; flushed == floor((n - W) / G) * G;
 *  per-step flush counts add up; 0 < min retained mass <= 1. */
bool decodeLedgerHolds(const DecodeLedger &l);

/** Output budget of one served request against what it yielded. */
struct ServedRequest
{
    uint64_t prompt = 0;
    uint32_t budget = 0;   //!< output tokens the request asked for
    uint32_t produced = 0; //!< tokens it was given by decode steps
    uint64_t context = 0;  //!< contextLength() when it finished
};

/** Every request produced exactly its budget and holds
 *  prompt + budget tokens of context. */
bool budgetsMet(const std::vector<ServedRequest> &reqs);

/** What a decode step reports for one request. */
struct StepVerdict
{
    uint64_t offloads = 0;
    uint64_t flushed = 0;
    double minMass = 1.0;
    bool matched = true;
};

/** Bit-for-bit equality (the retained mass compared as raw bits). */
bool verdictsIdentical(const StepVerdict &a, const StepVerdict &b);

} // namespace hostbench

#endif // HOSTBENCH_CHECKS_HH
