#include "checks.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace hostbench {

namespace {

int
concordance(const uint64_t *a, const uint64_t *b, size_t dim)
{
    int diff = 0;
    for (size_t w = 0; w < signWords(dim); ++w)
        diff += std::popcount(a[w] ^ b[w]);
    return static_cast<int>(dim) - diff;
}

/** Majority-sign signature of rows [begin, end): bit set iff at least
 *  half of the rows have a non-negative component there. */
std::vector<uint64_t>
majoritySignature(const float *rows, size_t dim, size_t begin, size_t end)
{
    std::vector<uint64_t> sig(signWords(dim), 0);
    for (size_t c = 0; c < dim; ++c) {
        size_t set = 0;
        for (size_t r = begin; r < end; ++r)
            set += rows[r * dim + c] >= 0.0f ? 1 : 0;
        if (2 * set >= end - begin)
            sig[c / 64] |= uint64_t{1} << (c % 64);
    }
    return sig;
}

/** Blocks a Q-block attends to, ascending; `sigs` holds one
 *  signature per complete K-block. */
std::vector<size_t>
attendedBlocks(const float *keys, size_t dim, size_t prompt,
               const PromptPassShape &s,
               const std::vector<std::vector<uint64_t>> &sigs, size_t qb)
{
    const size_t B = s.blockTokens;
    const size_t q_begin = qb * B;
    const size_t q_end = std::min(q_begin + B, prompt);
    const size_t win = q_begin < s.windowTokens
        ? 0
        : (q_begin - s.windowTokens) / B;
    const size_t sinks = (s.sinkTokens + B - 1) / B;
    std::vector<size_t> blocks;
    for (size_t b = 0; b < std::min(sinks, win); ++b)
        blocks.push_back(b);
    if (win > sinks) {
        const auto qsig = majoritySignature(keys, dim, q_begin, q_end);
        for (size_t b = sinks; b < win; ++b)
            if (concordance(qsig.data(), sigs[b].data(), dim) >=
                s.threshold)
                blocks.push_back(b);
    }
    for (size_t b = win; b <= qb; ++b)
        blocks.push_back(b);
    return blocks;
}

std::vector<std::vector<uint64_t>>
blockSignatures(const float *keys, size_t dim, size_t prompt, size_t B)
{
    std::vector<std::vector<uint64_t>> sigs;
    for (size_t b = 0; (b + 1) * B <= prompt; ++b)
        sigs.push_back(majoritySignature(keys, dim, b * B, (b + 1) * B));
    return sigs;
}

} // namespace

void
packSignsRef(const float *v, size_t dim, uint64_t *out)
{
    std::fill(out, out + signWords(dim), 0);
    for (size_t i = 0; i < dim; ++i)
        if (v[i] >= 0.0f)
            out[i / 64] |= uint64_t{1} << (i % 64);
}

void
rotatedSignsRef(const float *x, const float *rot, size_t dim,
                const uint64_t *fallback, uint64_t *out, size_t &ambiguous)
{
    std::vector<float> y(dim, 0.0f);
    std::vector<double> mag(dim, 0.0);
    for (size_t i = 0; i < dim; ++i)
        for (size_t j = 0; j < dim; ++j) {
            y[j] += x[i] * rot[i * dim + j];
            mag[j] += std::fabs(static_cast<double>(x[i]) *
                                rot[i * dim + j]);
        }
    packSignsRef(y.data(), dim, out);
    for (size_t j = 0; j < dim; ++j) {
        if (std::fabs(static_cast<double>(y[j])) > 1e-5 * mag[j])
            continue;
        ++ambiguous;
        const uint64_t bit = uint64_t{1} << (j % 64);
        out[j / 64] = (out[j / 64] & ~bit) | (fallback[j / 64] & bit);
    }
}

std::vector<uint32_t>
bruteTopK(const TopkProblem &p, size_t *survivors)
{
    struct Scored
    {
        float score;
        uint32_t row;
    };
    std::vector<Scored> pass;
    const size_t w = signWords(p.dim);
    for (size_t r = p.begin; r < p.end; ++r) {
        if (concordance(p.querySigns, p.keySigns + r * w, p.dim) <
            p.threshold)
            continue;
        double acc = 0.0;
        for (size_t c = 0; c < p.dim; ++c)
            acc += static_cast<double>(p.query[c]) *
                static_cast<double>(p.keys[r * p.dim + c]);
        pass.push_back({static_cast<float>(acc) * p.scale,
                        static_cast<uint32_t>(r)});
    }
    if (survivors)
        *survivors = pass.size();
    const size_t k = std::min(p.k, pass.size());
    std::partial_sort(pass.begin(), pass.begin() + static_cast<long>(k),
                      pass.end(), [](const Scored &a, const Scored &b) {
                          return a.score != b.score ? a.score > b.score
                                                    : a.row < b.row;
                      });
    std::vector<uint32_t> out(k);
    for (size_t i = 0; i < k; ++i)
        out[i] = pass[i].row;
    return out;
}

bool
topkMatches(std::vector<uint32_t> expected, std::vector<uint32_t> got)
{
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    return expected == got;
}

std::vector<uint32_t>
promptAttended(const float *keys, size_t dim, size_t prompt,
               const PromptPassShape &shape, size_t row)
{
    const auto sigs =
        blockSignatures(keys, dim, prompt, shape.blockTokens);
    const size_t B = shape.blockTokens;
    std::vector<uint32_t> tokens;
    for (size_t b :
         attendedBlocks(keys, dim, prompt, shape, sigs, row / B))
        for (size_t t = b * B; t < std::min((b + 1) * B, row + 1); ++t)
            tokens.push_back(static_cast<uint32_t>(t));
    return tokens;
}

uint64_t
promptAttendedTotal(const float *keys, size_t dim, size_t prompt,
                    const PromptPassShape &shape)
{
    const auto sigs =
        blockSignatures(keys, dim, prompt, shape.blockTokens);
    const size_t B = shape.blockTokens;
    uint64_t total = 0;
    for (size_t qb = 0; qb * B < prompt; ++qb) {
        const auto blocks = attendedBlocks(keys, dim, prompt, shape, sigs, qb);
        const size_t q_end = std::min((qb + 1) * B, prompt);
        for (size_t i = qb * B; i < q_end; ++i)
            for (size_t b : blocks)
                total += b * B > i ? 0 : std::min((b + 1) * B, i + 1) - b * B;
    }
    return total;
}

bool
promptCountsHold(uint64_t attended, uint64_t dense, const float *keys,
                 size_t dim, size_t prompt, const PromptPassShape &shape)
{
    return dense == uint64_t{prompt} * (prompt + 1) / 2 &&
        attended == promptAttendedTotal(keys, dim, prompt, shape);
}

std::vector<double>
softmaxRowRef(const float *query, const float *keys, const float *values,
              size_t dim, const std::vector<uint32_t> &idx, float scale)
{
    std::vector<double> logits(idx.size());
    double peak = -INFINITY;
    for (size_t j = 0; j < idx.size(); ++j) {
        double acc = 0.0;
        for (size_t c = 0; c < dim; ++c)
            acc += static_cast<double>(query[c]) *
                keys[size_t{idx[j]} * dim + c];
        logits[j] = acc * scale;
        peak = std::max(peak, logits[j]);
    }
    double norm = 0.0;
    for (double &l : logits) {
        l = std::exp(l - peak);
        norm += l;
    }
    std::vector<double> out(dim, 0.0);
    for (size_t j = 0; j < idx.size(); ++j)
        for (size_t c = 0; c < dim; ++c)
            out[c] += logits[j] / norm * values[size_t{idx[j]} * dim + c];
    return out;
}

bool
rowMatches(const std::vector<double> &ref, const float *got)
{
    for (size_t c = 0; c < ref.size(); ++c)
        if (!(std::fabs(got[c] - ref[c]) <= 1e-4 * (1.0 + std::fabs(ref[c]))))
            return false;
    return true;
}

bool
decodeLedgerHolds(const DecodeLedger &l)
{
    const auto expected_flush = [&](size_t n) {
        return n > l.window ? (n - l.window) / l.granularity * l.granularity
                            : 0;
    };
    return l.context == l.prompt + l.steps &&
        l.flushed == expected_flush(l.context) &&
        l.flushedAtPrompt == expected_flush(l.prompt) &&
        l.stepFlushSum ==
            (l.flushed - l.flushedAtPrompt) * l.headsPerToken &&
        l.minMass > 0.0 && l.minMass <= 1.0;
}

bool
budgetsMet(const std::vector<ServedRequest> &reqs)
{
    for (const ServedRequest &r : reqs)
        if (r.produced != r.budget || r.context != r.prompt + r.budget)
            return false;
    return !reqs.empty();
}

bool
verdictsIdentical(const StepVerdict &a, const StepVerdict &b)
{
    return a.offloads == b.offloads && a.flushed == b.flushed &&
        a.matched == b.matched &&
        std::memcmp(&a.minMass, &b.minMass, sizeof(double)) == 0;
}

} // namespace hostbench
