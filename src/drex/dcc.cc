#include "drex/dcc.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace longsight {

void
PollingRegister::set(uint32_t bit)
{
    LS_ASSERT(bit < kBits, "polling bit out of range");
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
}

void
PollingRegister::clear(uint32_t bit)
{
    LS_ASSERT(bit < kBits, "polling bit out of range");
    words_[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
}

bool
PollingRegister::test(uint32_t bit) const
{
    LS_ASSERT(bit < kBits, "polling bit out of range");
    return (words_[bit >> 6] >> (bit & 63)) & 1;
}

uint32_t
PollingRegister::popcount() const
{
    uint32_t n = 0;
    for (uint64_t w : words_)
        n += static_cast<uint32_t>(__builtin_popcountll(w));
    return n;
}

Dcc::Dcc(const DccConfig &cfg, const DataLayout &layout,
         std::vector<Nma> &nmas)
    : cfg_(cfg), layout_(layout), nmas_(nmas)
{
    LS_ASSERT(!nmas.empty(), "DCC needs at least one NMA");
}

void
Dcc::submit(AttentionRequest request)
{
    LS_ASSERT(queue_.size() < cfg_.queueDepth,
              "DCC request queue overflow (depth ", cfg_.queueDepth, ")");
    queue_.push_back(std::move(request));
}

uint32_t
Dcc::responseBufferFor(uint32_t uid)
{
    auto it = bufferCam_.find(uid);
    if (it != bufferCam_.end())
        return it->second;
    uint32_t idx;
    if (!freeBuffers_.empty()) {
        idx = freeBuffers_.back();
        freeBuffers_.pop_back();
    } else {
        LS_ASSERT(nextBuffer_ < cfg_.responseBuffers,
                  "response buffers exhausted (", cfg_.responseBuffers,
                  ")");
        idx = nextBuffer_++;
    }
    bufferCam_.emplace(uid, idx);
    return idx;
}

void
Dcc::release(uint32_t uid)
{
    LS_ASSERT(std::none_of(queue_.begin(), queue_.end(),
                           [uid](const AttentionRequest &r) {
                               return r.uid == uid;
                           }),
              "release of user ", uid, " with a queued request");
    auto it = bufferCam_.find(uid);
    if (it == bufferCam_.end())
        return;
    pollReg_.clear(it->second);
    freeBuffers_.push_back(it->second);
    bufferCam_.erase(it);
}

AttentionResponse
Dcc::processNext()
{
    LS_ASSERT(!queue_.empty(), "processNext on an empty queue");
    AttentionRequest req = std::move(queue_.front());
    queue_.pop_front();

    AttentionResponse resp;
    resp.uid = req.uid;
    resp.layer = req.layer;
    resp.responseBuffer = responseBufferFor(req.uid);

    const Tick dispatch = req.arrivalTick + cfg_.dispatchOverhead;

    // Dispatch offloads package by package: each NMA owns its package
    // (timing state, PFU filtering), so distinct packages run on
    // distinct host threads — the simulated bank/package parallelism
    // becomes real host parallelism. Offloads that share a package
    // keep their FIFO order within that package's lane, exactly as
    // the serial loop processed them.
    std::vector<OffloadResult> results(req.headOffloads.size());
    std::vector<std::vector<size_t>> by_package(nmas_.size());
    for (size_t i = 0; i < req.headOffloads.size(); ++i) {
        const auto &spec = req.headOffloads[i];
        const uint32_t pkg = layout_.packageFor(spec.user, spec.kvHead);
        LS_ASSERT(pkg < nmas_.size(), "package ", pkg, " has no NMA");
        by_package[pkg].push_back(i);
    }
    std::vector<uint32_t> active;
    for (uint32_t pkg = 0; pkg < by_package.size(); ++pkg)
        if (!by_package[pkg].empty())
            active.push_back(pkg);
    ThreadPool::global().parallelFor(0, active.size(), [&](size_t pi) {
        LS_PARALLEL_BODY();
        const uint32_t pkg = active[pi];
        for (size_t i : by_package[pkg])
            results[i] = nmas_[pkg].process(dispatch,
                                            req.headOffloads[i]);
    });

    // Aggregate in the request's offload order.
    Tick done = dispatch;
    for (auto &r : results) {
        done = std::max(done, r.doneTick);
        resp.responseBytes += r.valueBytes;
        resp.headResults.push_back(std::move(r));
    }
    resp.readyTick = done + cfg_.aggregationOverhead;
    pollReg_.set(resp.responseBuffer);
    return resp;
}

void
Dcc::acknowledge(uint32_t uid)
{
    auto it = bufferCam_.find(uid);
    LS_ASSERT(it != bufferCam_.end(), "acknowledge of unknown user ", uid);
    pollReg_.clear(it->second);
}

std::vector<AttentionResponse>
Dcc::processAll()
{
    std::vector<AttentionResponse> out;
    while (hasWork())
        out.push_back(processNext());
    return out;
}

} // namespace longsight
