/**
 * @file
 * Tests for the DReX CXL Controller: FIFO request ordering, queue
 * depth limits, response-buffer CAM behaviour, and aggregation across
 * per-head offloads on multiple NMAs.
 */

#include <gtest/gtest.h>

#include "drex/drex_device.hh"
#include "util/rng.hh"

namespace longsight {
namespace {

DrexConfig
tinyConfig()
{
    DrexConfig cfg;
    cfg.numKvHeads = 2;
    cfg.numLayers = 1;
    cfg.headDim = 64;
    return cfg;
}

AttentionRequest
timingRequest(uint32_t uid, uint64_t region, Tick arrival,
              uint32_t num_heads = 2)
{
    AttentionRequest req;
    req.uid = uid;
    req.arrivalTick = arrival;
    for (uint32_t h = 0; h < num_heads; ++h) {
        OffloadSpec spec;
        spec.user = uid;
        spec.kvHead = h;
        spec.sparseEnd = region;
        spec.survivorFraction = 0.1;
        req.headOffloads.push_back(spec);
    }
    return req;
}

TEST(Dcc, ProcessesInFifoOrder)
{
    DrexDevice dev(tinyConfig());
    dev.submit(timingRequest(5, 10'000, 0));
    dev.submit(timingRequest(3, 10'000, 0));
    dev.submit(timingRequest(9, 10'000, 0));
    const auto responses = dev.processAll();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].uid, 5u);
    EXPECT_EQ(responses[1].uid, 3u);
    EXPECT_EQ(responses[2].uid, 9u);
    // FIFO also in time: each later request finishes no earlier.
    EXPECT_LE(responses[0].readyTick, responses[1].readyTick);
    EXPECT_LE(responses[1].readyTick, responses[2].readyTick);
}

TEST(Dcc, ResponseBufferCamIsStablePerUser)
{
    DrexDevice dev(tinyConfig());
    Dcc &dcc = dev.dcc();
    const uint32_t b7 = dcc.responseBufferFor(7);
    const uint32_t b9 = dcc.responseBufferFor(9);
    EXPECT_NE(b7, b9);
    EXPECT_EQ(dcc.responseBufferFor(7), b7);
    EXPECT_EQ(dcc.activeUsers(), 2u);
}

TEST(Dcc, QueueDepthEnforced)
{
    DrexConfig cfg = tinyConfig();
    cfg.dcc.queueDepth = 2;
    DrexDevice dev(cfg);
    dev.submit(timingRequest(0, 1000, 0));
    dev.submit(timingRequest(1, 1000, 0));
    EXPECT_DEATH({ dev.submit(timingRequest(2, 1000, 0)); },
                 "queue overflow");
}

TEST(Dcc, ResponseBufferExhaustionDies)
{
    DrexConfig cfg = tinyConfig();
    cfg.dcc.responseBuffers = 2;
    DrexDevice dev(cfg);
    dev.dcc().responseBufferFor(0);
    dev.dcc().responseBufferFor(1);
    EXPECT_DEATH({ dev.dcc().responseBufferFor(2); }, "exhausted");
}

TEST(Dcc, ReleasedBuffersAreReused)
{
    DrexConfig cfg = tinyConfig();
    cfg.dcc.responseBuffers = 2;
    DrexDevice dev(cfg);
    Dcc &dcc = dev.dcc();
    const uint32_t b0 = dcc.responseBufferFor(10);
    const uint32_t b1 = dcc.responseBufferFor(11);
    dcc.pollingRegister().set(b0);
    dcc.release(10);
    EXPECT_FALSE(dcc.pollingRegister().test(b0));
    EXPECT_EQ(dcc.activeUsers(), 1u);
    // The freed buffer goes to the next new user instead of a third
    // (nonexistent) one; the live user's index is never handed out.
    EXPECT_EQ(dcc.responseBufferFor(12), b0);
    EXPECT_EQ(dcc.responseBufferFor(11), b1);
    EXPECT_DEATH({ dcc.responseBufferFor(13); }, "exhausted");
}

TEST(Dcc, ReleaseOfUnknownUserIsNoOp)
{
    DrexDevice dev(tinyConfig());
    Dcc &dcc = dev.dcc();
    const uint32_t b = dcc.responseBufferFor(4);
    dcc.release(5);
    EXPECT_EQ(dcc.activeUsers(), 1u);
    EXPECT_EQ(dcc.responseBufferFor(4), b);
    EXPECT_NE(dcc.responseBufferFor(6), b);
}

TEST(Dcc, ReleaseWithQueuedRequestDies)
{
    DrexDevice dev(tinyConfig());
    dev.submit(timingRequest(3, 1000, 0));
    EXPECT_DEATH({ dev.dcc().release(3); }, "queued request");
}

TEST(Dcc, HeadsRunOnDistinctNmasInParallel)
{
    // Two heads -> two packages: request completion must be close to
    // one offload's service time, not two.
    DrexConfig cfg = tinyConfig();
    DrexDevice single_head(cfg), both_heads(cfg);

    single_head.submit(timingRequest(0, 100'000, 0, 1));
    const auto r1 = single_head.processAll();
    both_heads.submit(timingRequest(0, 100'000, 0, 2));
    const auto r2 = both_heads.processAll();

    const Tick t1 = r1[0].readyTick;
    const Tick t2 = r2[0].readyTick;
    EXPECT_LT(t2, t1 + t1 / 4) << "parallel heads should not serialize";
}

TEST(Dcc, ResponseAggregatesAllHeads)
{
    DrexDevice dev(tinyConfig());
    dev.submit(timingRequest(0, 10'000, 0, 2));
    const auto r = dev.processAll();
    ASSERT_EQ(r[0].headResults.size(), 2u);
    EXPECT_GT(r[0].responseBytes, 0u);
    EXPECT_EQ(r[0].responseBytes,
              r[0].headResults[0].valueBytes +
                  r[0].headResults[1].valueBytes);
}

TEST(Dcc, ArrivalTickDelaysProcessing)
{
    DrexDevice dev(tinyConfig());
    const Tick arrival = 50 * kMicrosecond;
    dev.submit(timingRequest(0, 10'000, arrival));
    const auto r = dev.processAll();
    EXPECT_GT(r[0].readyTick, arrival);
}

TEST(Dcc, PollingRegisterBitOps)
{
    PollingRegister reg;
    EXPECT_EQ(reg.popcount(), 0u);
    reg.set(0);
    reg.set(63);
    reg.set(64);
    reg.set(511);
    EXPECT_TRUE(reg.test(0));
    EXPECT_TRUE(reg.test(511));
    EXPECT_FALSE(reg.test(1));
    EXPECT_EQ(reg.popcount(), 4u);
    reg.clear(64);
    EXPECT_FALSE(reg.test(64));
    EXPECT_EQ(reg.popcount(), 3u);
}

TEST(Dcc, CompletionSetsPollingBitAcknowledgeClears)
{
    DrexDevice dev(tinyConfig());
    Dcc &dcc = dev.dcc();
    dev.submit(timingRequest(7, 5000, 0));
    EXPECT_EQ(dcc.pollingRegister().popcount(), 0u);
    const auto responses = dev.processAll();
    const uint32_t buf = responses[0].responseBuffer;
    EXPECT_TRUE(dcc.pollingRegister().test(buf));
    dcc.acknowledge(7);
    EXPECT_FALSE(dcc.pollingRegister().test(buf));
}

TEST(Dcc, PollingBitsIndependentAcrossUsers)
{
    DrexDevice dev(tinyConfig());
    dev.submit(timingRequest(1, 2000, 0));
    dev.submit(timingRequest(2, 2000, 0));
    dev.processAll();
    EXPECT_EQ(dev.dcc().pollingRegister().popcount(), 2u);
    dev.dcc().acknowledge(1);
    EXPECT_EQ(dev.dcc().pollingRegister().popcount(), 1u);
}

TEST(Dcc, SequentialUsersShareNmasFairly)
{
    // Two users' requests: the second user's offloads queue behind the
    // first on the same NMAs (packageFor rotates, but with 2 heads on
    // an 8-package device they land on disjoint NMAs — so completion
    // should overlap substantially).
    DrexDevice dev(tinyConfig());
    dev.submit(timingRequest(0, 50'000, 0));
    dev.submit(timingRequest(1, 50'000, 0));
    const auto r = dev.processAll();
    // User 1's heads are on packages {1, 2}; user 0 on {0, 1}: head
    // overlap on package 1 partially serializes.
    EXPECT_GE(r[1].readyTick, r[0].readyTick);
}

} // namespace
} // namespace longsight
