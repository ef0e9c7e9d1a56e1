/**
 * @file
 * Self-test of the benchmark's correctness checks: each check must
 * accept a correct result and reject the same result with one
 * deliberate fault in it (a swapped top-k index, an unrotated query,
 * a shifted output element, a missing token, a one-ulp verdict
 * change). Exits 0 only when every check does both.
 *
 * Run:  python3 hostbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <random>

#include "checks.hh"

using namespace hostbench;

namespace {

int failures = 0;

void
expect(const char *what, bool accepted_correct, bool rejected_fault)
{
    std::printf("%-44s correct:%s  perturbed:%s\n", what,
                accepted_correct ? "accepted" : "REJECTED",
                rejected_fault ? "rejected" : "ACCEPTED");
    if (!accepted_correct || !rejected_fault)
        ++failures;
}

std::vector<float>
gaussian(std::mt19937_64 &rng, size_t n)
{
    std::normal_distribution<float> g(0.0f, 1.0f);
    std::vector<float> v(n);
    for (float &x : v)
        x = g(rng);
    return v;
}

void
topkCheck(std::mt19937_64 &rng)
{
    const size_t rows = 600, dim = 64, w = signWords(dim);
    const auto keys = gaussian(rng, rows * dim);
    const auto rot = gaussian(rng, dim * dim);
    std::vector<uint64_t> signs(rows * w), none(w, 0);
    size_t ambiguous = 0;
    for (size_t r = 0; r < rows; ++r)
        rotatedSignsRef(keys.data() + r * dim, rot.data(), dim,
                        none.data(), signs.data() + r * w, ambiguous);
    const auto q = gaussian(rng, dim);
    std::vector<uint64_t> qs(w), unrotated(w);
    packSignsRef(q.data(), dim, unrotated.data());
    rotatedSignsRef(q.data(), rot.data(), dim, unrotated.data(), qs.data(),
                    ambiguous);

    TopkProblem p;
    p.keys = keys.data();
    p.keySigns = signs.data();
    p.dim = dim;
    p.begin = 16;
    p.end = rows;
    p.query = q.data();
    p.querySigns = qs.data();
    p.scale = 0.125f;
    p.threshold = 30;
    p.k = 40;
    size_t survivors = 0;
    const auto expected = bruteTopK(p, &survivors);
    auto device = expected;
    const bool ok = survivors > p.k && topkMatches(expected, device);
    // A device fed queries whose filter-space rotation was skipped.
    TopkProblem skipped = p;
    skipped.querySigns = unrotated.data();
    expect("decode_long: top-k with unrotated queries", ok,
           !topkMatches(expected, bruteTopK(skipped)));
    // Swap one selected index for a surviving row ranked below k.
    p.k = survivors;
    const auto all = bruteTopK(p);
    device[7] = all[expected.size()];
    expect("decode_long: device top-k vs brute force", ok,
           !topkMatches(expected, device));
}

void
promptCheck(std::mt19937_64 &rng)
{
    const size_t prompt = 1024, dim = 32;
    PromptPassShape shape;
    shape.blockTokens = 64;
    shape.windowTokens = 128;
    shape.threshold = 18;
    const auto keys = gaussian(rng, prompt * dim);
    const auto values = gaussian(rng, prompt * dim);
    const size_t row = 900;
    const auto idx = promptAttended(keys.data(), dim, prompt, shape, row);
    const auto ref = softmaxRowRef(keys.data() + row * dim, keys.data(),
                                   values.data(), dim, idx, 0.17f);
    std::vector<float> out(ref.begin(), ref.end());
    const bool ok = idx.size() < row + 1 && rowMatches(ref, out.data());
    out[5] += 0.01f;
    expect("prefill_sparse: prompt-pass row vs softmax", ok,
           !rowMatches(ref, out.data()));

    // Counts as a correct pass reports them: the row-by-row attended
    // sizes and the dense triangle.
    uint64_t attended = 0;
    for (size_t i = 0; i < prompt; ++i)
        attended += promptAttended(keys.data(), dim, prompt, shape, i).size();
    const uint64_t dense = uint64_t{prompt} * (prompt + 1) / 2;
    const auto holds = [&](uint64_t a, uint64_t d) {
        return promptCountsHold(a, d, keys.data(), dim, prompt, shape);
    };
    // A pass that dropped one attended token from one row, and one that
    // lost a row of the dense triangle.
    expect("prefill_sparse: attended-token total", holds(attended, dense),
           !holds(attended - 1, dense));
    expect("prefill_sparse: dense-token total", holds(attended, dense),
           !holds(attended, dense - prompt));
}

void
ledgerCheck()
{
    DecodeLedger l;
    l.prompt = 4096;
    l.steps = 300;
    l.context = 4396;
    l.window = 1024;
    l.granularity = 128;
    l.flushed = 3328;
    l.flushedAtPrompt = 3072;
    l.headsPerToken = 16;
    l.stepFlushSum = (3328 - 3072) * 16;
    l.minMass = 0.9;
    const bool ok = decodeLedgerHolds(l);
    DecodeLedger missing = l;
    missing.context -= 1;
    expect("decode_long: context/flush ledger", ok,
           !decodeLedgerHolds(missing));
}

void
servingChecks()
{
    std::vector<ServedRequest> reqs = {
        {512, 40, 40, 552}, {300, 17, 17, 317}, {1024, 64, 64, 1088}};
    const bool ok = budgetsMet(reqs);
    reqs[1].produced -= 1;
    reqs[1].context -= 1;
    expect("serve_chunked: output budgets", ok, !budgetsMet(reqs));

    StepVerdict a{2, 0, 0.8125, true};
    StepVerdict b = a;
    const bool same = verdictsIdentical(a, b);
    b.minMass = std::nextafter(b.minMass, 1.0);
    expect("serve_chunked: batch vs twin verdicts", same,
           !verdictsIdentical(a, b));
}

} // namespace

int
main()
{
    std::mt19937_64 rng(12345);
    topkCheck(rng);
    promptCheck(rng);
    ledgerCheck();
    servingChecks();
    std::printf("%s\n", failures == 0 ? "selftest: every check accepts "
                                        "correct results and rejects "
                                        "perturbed ones"
                                      : "selftest: FAILED");
    return failures == 0 ? 0 : 1;
}
