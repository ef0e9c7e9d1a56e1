#include "drex/drex_device.hh"

#include "util/logging.hh"

namespace longsight {

DrexDevice::DrexDevice(const DrexConfig &cfg)
    : cfg_(cfg),
      layout_(cfg.geometry, cfg.timings, cfg.numKvHeads, cfg.numLayers,
              cfg.headDim)
{
    packages_.reserve(cfg.geometry.numPackages);
    for (uint32_t p = 0; p < cfg.geometry.numPackages; ++p)
        packages_.emplace_back(cfg.timings, cfg.geometry.channelsPerPackage);

    nmas_.reserve(cfg.geometry.numPackages);
    for (uint32_t p = 0; p < cfg.geometry.numPackages; ++p)
        nmas_.emplace_back(cfg.nma, layout_, packages_[p]);

    dcc_ = std::make_unique<Dcc>(cfg.dcc, layout_, nmas_);
}

DramPackage &
DrexDevice::package(uint32_t i)
{
    LS_ASSERT(i < packages_.size(), "package index out of range");
    return packages_[i];
}

Nma &
DrexDevice::nma(uint32_t i)
{
    LS_ASSERT(i < nmas_.size(), "NMA index out of range");
    return nmas_[i];
}

uint64_t
DrexDevice::capacityBytes() const
{
    return static_cast<uint64_t>(cfg_.geometry.totalChannels()) *
        cfg_.timings.channelCapacity;
}

uint32_t
DrexDevice::maxUsers(uint64_t context_len) const
{
    if (context_len == 0)
        return 0;
    const uint64_t per_user = layout_.bytesPerToken() * context_len;
    const uint64_t by_capacity = capacityBytes() / per_user;
    // The DCC supports at most queueDepth concurrent users (§7.2).
    return static_cast<uint32_t>(
        std::min<uint64_t>(by_capacity, cfg_.dcc.queueDepth));
}

KvCache &
DrexDevice::writeContext(uint32_t user, uint32_t layer, uint32_t kv_head,
                         const Matrix &keys, const Matrix &values)
{
    const ContextKey key{user, layer, kv_head};
    KvCache *cache;
    {
        std::lock_guard<std::mutex> lock(contextsMu_);
        auto it = contexts_.find(key);
        if (it == contexts_.end()) {
            it = contexts_.emplace(key, KvCache(cfg_.headDim)).first;
        }
        cache = &it->second;
    }
    // The bulk copy happens outside the lock: concurrent writers hit
    // distinct (user, layer, head) caches, and map node references
    // survive later inserts.
    cache->appendAll(keys, values);
    LS_ASSERT(cache->size() <=
                  layout_.maxTokensPerSlice() * cfg_.geometry.numPackages,
              "context exceeds device slice capacity");
    return *cache;
}

KvCache &
DrexDevice::context(uint32_t user, uint32_t layer, uint32_t kv_head)
{
    std::lock_guard<std::mutex> lock(contextsMu_);
    auto it = contexts_.find(ContextKey{user, layer, kv_head});
    LS_ASSERT(it != contexts_.end(), "no context stored for user ", user,
              " layer ", layer, " head ", kv_head);
    return it->second;
}

bool
DrexDevice::hasContext(uint32_t user, uint32_t layer,
                       uint32_t kv_head) const
{
    std::lock_guard<std::mutex> lock(contextsMu_);
    return contexts_.count(ContextKey{user, layer, kv_head}) > 0;
}

void
DrexDevice::releaseUser(uint32_t user)
{
    {
        std::lock_guard<std::mutex> lock(contextsMu_);
        contexts_.erase(
            contexts_.lower_bound(ContextKey{user, 0, 0}),
            contexts_.upper_bound(
                ContextKey{user, UINT32_MAX, UINT32_MAX}));
    }
    dcc_->release(user);
}

Tick
DrexDevice::chargeContextWrite(Tick start, uint32_t user, uint32_t layer,
                               uint32_t kv_head, uint64_t first_token,
                               uint64_t num_tokens)
{
    LS_ASSERT(num_tokens > 0, "empty context write");
    Tick done = start;
    const uint32_t key_bytes = layout_.keyBytes();
    const uint32_t sign_bytes_per_key = cfg_.headDim / 8;
    for (uint64_t i = 0; i < num_tokens; ++i) {
        const uint64_t token = first_token + i;
        const TokenPlace p = layout_.place(user, layer, kv_head, token);
        DramPackage &pkg = packages_[p.package];
        // Sign bits land in the sign channel's bank (bit-transposed
        // within the Key Sign Object)...
        done = std::max(done,
                        pkg.channel(p.signChannel)
                            .write(start, p.bank, p.signRow,
                                   sign_bytes_per_key));
        // ...while the full-precision key and value stripe across all
        // channels of the package.
        const uint32_t slice =
            key_bytes / cfg_.geometry.channelsPerPackage;
        for (uint32_t c = 0; c < cfg_.geometry.channelsPerPackage; ++c) {
            done = std::max(done, pkg.channel(c).write(start, p.bank,
                                                       p.keyRow, slice));
            done = std::max(done, pkg.channel(c).write(start, p.bank,
                                                       p.valueRow, slice));
        }
    }
    return done;
}

} // namespace longsight
