/**
 * @file
 * DReX CXL Controller (DCC) with the LongSight extensions of §7.2:
 * a hardware-managed FIFO Request Queue (depth 512 = max batch size),
 * 512 Response Buffers, a Polling Register, and a CAM mapping each
 * User ID to its response buffer and polling bit. The DCC pulls
 * request descriptors in FIFO order, splits them into per-KV-head
 * offloads, dispatches each offload to the NMA of the package holding
 * that head's Context Slice, and aggregates the partial top-k results
 * into the user's response buffer.
 */

#ifndef LONGSIGHT_DREX_DCC_HH
#define LONGSIGHT_DREX_DCC_HH

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "drex/layout.hh"
#include "drex/nma.hh"
#include "util/units.hh"

namespace longsight {

/**
 * The 512-bit Polling Register (§7.2): one completion bit per
 * response buffer. The GPU reads the whole register in one CXL access
 * and clears its user's bit when it consumes the response.
 */
class PollingRegister
{
  public:
    static constexpr uint32_t kBits = 512;

    void set(uint32_t bit);
    void clear(uint32_t bit);
    bool test(uint32_t bit) const;

    /** Number of completions currently signalled. */
    uint32_t popcount() const;

    /** Raw 64-byte register image (what a CXL read returns). */
    const std::array<uint64_t, kBits / 64> &words() const
    {
        return words_;
    }

  private:
    std::array<uint64_t, kBits / 64> words_{};
};

/**
 * DCC hardware parameters (§7.2).
 */
struct DccConfig
{
    uint32_t queueDepth = 512;        //!< request queue entries
    uint32_t responseBuffers = 512;   //!< one per concurrent user
    Tick dispatchOverhead = fromNanoseconds(50.0); //!< descriptor decode
    Tick aggregationOverhead = fromNanoseconds(100.0); //!< top-k merge
};

/**
 * One attention request descriptor as written by the GPU: the user,
 * the layer, and one offload spec per KV head.
 */
struct AttentionRequest
{
    uint32_t uid = 0;
    uint32_t layer = 0;
    std::vector<OffloadSpec> headOffloads;
    Tick arrivalTick = 0; //!< when the MMIO write lands at the DCC
};

/**
 * Aggregated response for one request.
 */
struct AttentionResponse
{
    uint32_t uid = 0;
    uint32_t layer = 0;
    std::vector<OffloadResult> headResults;
    uint32_t responseBuffer = 0;
    Tick readyTick = 0;       //!< polling register bit set
    uint64_t responseBytes = 0; //!< top-k scores + values payload
};

/**
 * The DCC: FIFO queueing, NMA dispatch, response aggregation.
 */
class Dcc
{
  public:
    Dcc(const DccConfig &cfg, const DataLayout &layout,
        std::vector<Nma> &nmas);

    const DccConfig &config() const { return cfg_; }

    /** Queue a request (asserts the queue is not full). */
    void submit(AttentionRequest request);

    /** Requests currently queued. */
    size_t queued() const { return queue_.size(); }

    /** True when a request is waiting. */
    bool hasWork() const { return !queue_.empty(); }

    /**
     * Pop the queue head and run it to completion across the NMAs.
     * FIFO order is architectural (§7.2): generation is sequential per
     * user, so the head request never waits on a later one.
     */
    AttentionResponse processNext();

    /** Drain the whole queue, returning responses in FIFO order. */
    std::vector<AttentionResponse> processAll();

    /**
     * CAM lookup: response buffer index for a user (allocated on
     * first use, reusing released buffers first; asserts when all
     * buffers are held).
     */
    uint32_t responseBufferFor(uint32_t uid);

    /**
     * Free a finished user's CAM entry and response buffer, clearing
     * its polling bit. The user must have no queued request; an
     * unknown uid is a no-op.
     */
    void release(uint32_t uid);

    /** Number of users currently holding response buffers. */
    size_t activeUsers() const { return bufferCam_.size(); }

    /** Completion bits, one per response buffer (§7.2). */
    PollingRegister &pollingRegister() { return pollReg_; }
    const PollingRegister &pollingRegister() const { return pollReg_; }

    /** GPU-side consume: read the response, clear its polling bit. */
    void acknowledge(uint32_t uid);

  private:
    DccConfig cfg_;
    const DataLayout &layout_;
    std::vector<Nma> &nmas_;
    std::deque<AttentionRequest> queue_;
    std::unordered_map<uint32_t, uint32_t> bufferCam_;
    std::vector<uint32_t> freeBuffers_; //!< released, reused LIFO
    uint32_t nextBuffer_ = 0;           //!< never-used buffers start here
    PollingRegister pollReg_;
};

} // namespace longsight

#endif // LONGSIGHT_DREX_DCC_HH
