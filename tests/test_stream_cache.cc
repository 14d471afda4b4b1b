/** End-to-end tests of the StreamCacheController datapath. */

#include <gtest/gtest.h>

#include "ndp/stream_cache.h"
#include "runtime/static_config.h"
#include "test_util.h"

namespace ndpext {
namespace {

TEST(StreamCache, NonStreamAccessBypasses)
{
    CacheRig rig;
    Access a;
    a.sid = kNoStream;
    a.addr = 0x10;
    const auto r = send(*rig.cache, 0, a, 0);
    EXPECT_GT(r.ready, 800u); // paid the CXL round trip
    EXPECT_EQ(rig.cache->bypasses(), 1u);
}

TEST(StreamCache, UnallocatedStreamGoesToExtendedMemory)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    const auto r = send(*rig.cache, 0, rig.accessOf(sid, 5), 0);
    EXPECT_GT(r.ready, 800u);
    EXPECT_EQ(rig.cache->uncachedStreamAccesses(), 1u);
}

TEST(StreamCache, MissThenHitIndirect)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    const auto r1 = send(*rig.cache, 0, rig.accessOf(sid, 5), 0);
    EXPECT_EQ(rig.cache->cacheMisses(), 1u);
    const auto r2 = send(*rig.cache, 0, rig.accessOf(sid, 5), r1.ready);
    EXPECT_EQ(rig.cache->cacheHits(), 1u);
    EXPECT_LT(r2.ready - r1.ready, r1.ready); // hit far cheaper than miss
}

TEST(StreamCache, AffineBlockGivesSpatialHits)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Affine, 256_KiB, 8, true);
    rig.allocateEverything();
    Cycles t = 0;
    // First element misses and fetches a 1 kB block = 128 elements.
    t = send(*rig.cache, 0, rig.accessOf(sid, 0), t).ready;
    EXPECT_EQ(rig.cache->cacheMisses(), 1u);
    for (ElemId e = 1; e < 128; ++e) {
        t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
    }
    EXPECT_EQ(rig.cache->cacheMisses(), 1u); // all spatial hits
    EXPECT_EQ(rig.cache->cacheHits(), 127u);
}

TEST(StreamCache, WriteToReadOnlyRaisesExceptionOnce)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    send(*rig.cache, 0, rig.accessOf(sid, 1, true), 0);
    EXPECT_EQ(rig.cache->writeExceptions(), 1u);
    EXPECT_FALSE(rig.table.stream(sid).readOnly);
    send(*rig.cache, 0, rig.accessOf(sid, 2, true), 100000);
    EXPECT_EQ(rig.cache->writeExceptions(), 1u); // only the first write
}

TEST(StreamCache, CollapseReplicationMergesGroups)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    // Hand-build a 2-group replicated allocation.
    StreamAlloc alloc(rig.cache->numUnits());
    alloc.numGroups = 2;
    alloc.shareRows = {8, 8, 0, 0, 8, 8, 0, 0};
    alloc.groupOf = {0, 0, 0, 0, 1, 1, 0, 0};
    rig.cache->applyConfiguration({{sid, alloc}});
    ASSERT_EQ(rig.cache->remap().alloc(sid)->numGroups, 2u);
    send(*rig.cache, 0, rig.accessOf(sid, 1, true), 0);
    EXPECT_EQ(rig.cache->remap().alloc(sid)->numGroups, 1u);
}

TEST(StreamCache, RemoteAccessesCostInterconnect)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 256_KiB, 8, true);
    // All space on unit 7, accessed from unit 0 (different stack).
    StreamAlloc alloc(rig.cache->numUnits());
    alloc.numGroups = 1;
    alloc.shareRows[7] = 32;
    rig.cache->applyConfiguration({{sid, alloc}});
    send(*rig.cache, 0, rig.accessOf(sid, 3), 0);
    const auto& bd = rig.cache->breakdown();
    EXPECT_GT(bd.icnIntra + bd.icnInter, 0u);
}

TEST(StreamCache, LocalPlacementAvoidsInterconnect)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 256_KiB, 8, true);
    StreamAlloc alloc(rig.cache->numUnits());
    alloc.numGroups = 1;
    alloc.shareRows[0] = 32;
    rig.cache->applyConfiguration({{sid, alloc}});
    // Warm then hit locally from unit 0.
    const auto r1 = send(*rig.cache, 0, rig.accessOf(sid, 3), 0);
    const Cycles icn_after_miss =
        rig.cache->breakdown().icnIntra + rig.cache->breakdown().icnInter;
    send(*rig.cache, 0, rig.accessOf(sid, 3), r1.ready);
    const Cycles icn_after_hit =
        rig.cache->breakdown().icnIntra + rig.cache->breakdown().icnInter;
    // The hit added no interconnect cycles (local unit, no CXL).
    EXPECT_EQ(icn_after_hit, icn_after_miss);
}

TEST(StreamCache, SamplersObserveAccesses)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    rig.cache->samplerBank(0).assign({{sid, 8}});
    for (ElemId e = 0; e < 100; ++e) {
        send(*rig.cache, 0, rig.accessOf(sid, e), e * 10000);
    }
    EXPECT_TRUE(rig.cache->samplerBank(0).accessed(sid));
    EXPECT_EQ(rig.cache->samplerBank(0).accessCount(sid), 100u);
    ASSERT_NE(rig.cache->samplerBank(0).samplerFor(sid), nullptr);
    EXPECT_EQ(rig.cache->samplerBank(0).samplerFor(sid)->accesses(), 100u);
}

TEST(StreamCache, ReconfigurationAccountsInvalidations)
{
    CacheRig rig(false, RemapMode::Modulo);
    const auto sid = rig.addStream(StreamType::Indirect, 256_KiB, 8, true);
    StreamAlloc a1(rig.cache->numUnits());
    a1.numGroups = 1;
    a1.shareRows[0] = 16;
    rig.cache->applyConfiguration({{sid, a1}});
    StreamAlloc a2(rig.cache->numUnits());
    a2.numGroups = 1;
    a2.shareRows[0] = 8;
    a2.shareRows[1] = 8;
    rig.cache->applyConfiguration({{sid, a2}});
    // Modulo mode invalidates everything on a change.
    EXPECT_EQ(rig.cache->invalidatedRows(), 16u);
    EXPECT_EQ(rig.cache->survivedRows(), 0u);
}

TEST(StreamCache, ConsistentHashPreservesRows)
{
    CacheRig rig(false, RemapMode::ConsistentHash);
    const auto sid = rig.addStream(StreamType::Indirect, 256_KiB, 8, true);
    StreamAlloc a1(rig.cache->numUnits());
    a1.numGroups = 1;
    a1.shareRows[0] = 16;
    rig.cache->applyConfiguration({{sid, a1}});
    StreamAlloc a2 = a1;
    a2.shareRows[0] = 12; // shrink
    rig.cache->applyConfiguration({{sid, a2}});
    EXPECT_EQ(rig.cache->survivedRows(), 12u);
    EXPECT_EQ(rig.cache->invalidatedRows(), 4u);
}

TEST(StreamCache, SurvivingRowsKeepCachedData)
{
    CacheRig rig(false, RemapMode::ConsistentHash);
    const auto sid = rig.addStream(StreamType::Indirect, 256_KiB, 8, true);
    StreamAlloc a1(rig.cache->numUnits());
    a1.numGroups = 1;
    a1.shareRows[0] = 16;
    rig.cache->applyConfiguration({{sid, a1}});
    // Warm a bunch of elements.
    Cycles t = 0;
    for (ElemId e = 0; e < 64; ++e) {
        t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
    }
    const auto misses_before = rig.cache->cacheMisses();
    // Re-apply the identical allocation: cached rows survive, so the
    // re-scan only re-misses direct-mapped conflict victims (the same
    // handful that would re-miss without any reconfiguration), not the
    // whole working set as bulk invalidation would.
    rig.cache->applyConfiguration({{sid, a1}});
    for (ElemId e = 0; e < 64; ++e) {
        t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
    }
    const auto new_misses = rig.cache->cacheMisses() - misses_before;
    EXPECT_LT(new_misses, 16u) << "survival should avoid a full re-fetch";
}

TEST(StreamCacheBaseline, MetadataCacheTracksHitRate)
{
    CacheRig rig(/*cacheline_mode=*/true);
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, false);
    rig.allocateEverything();
    Cycles t = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (ElemId e = 0; e < 512; ++e) {
            t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
        }
    }
    // Small working set: metadata cache should hit most of the time.
    EXPECT_GT(rig.cache->metadataHitRate(), 0.5);
    EXPECT_GT(rig.cache->breakdown().metadata, 0u);
}

TEST(StreamCacheBaseline, CachelineModeMissThenHit)
{
    CacheRig rig(/*cacheline_mode=*/true);
    const auto sid = rig.addStream(StreamType::Affine, 64_KiB, 8, true);
    rig.allocateEverything();
    const auto r1 = send(*rig.cache, 0, rig.accessOf(sid, 0), 0);
    EXPECT_EQ(rig.cache->cacheMisses(), 1u);
    send(*rig.cache, 0, rig.accessOf(sid, 0), r1.ready);
    EXPECT_EQ(rig.cache->cacheHits(), 1u);
    // Next line misses again: no 1 kB block prefetch for baselines.
    send(*rig.cache, 0, rig.accessOf(sid, 8), 2 * r1.ready);
    EXPECT_EQ(rig.cache->cacheMisses(), 2u);
}

TEST(StreamCache, WayPredictionTracksAccuracy)
{
    CacheRig rig;
    rig.params.indirectWays = 4;
    rig.params.indirectWayPrediction = true;
    rig.cache = std::make_unique<StreamCacheController>(
        rig.params, rig.table, rig.noc, rig.ext,
        DramTimingParams::hbm3Unit(), 256_KiB, 2000);
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    Cycles t = 0;
    // Alternate between two elements that collide into one set so the
    // MRU predictor keeps missing, then re-touch one so it hits.
    for (int rep = 0; rep < 50; ++rep) {
        for (ElemId e = 0; e < 64; ++e) {
            t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
        }
    }
    const double rate = rig.cache->wayPredictionRate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    EXPECT_GT(rig.cache->cacheHits(), 0u);
}

TEST(StreamCache, AssociativeWithoutPredictionStillWorks)
{
    CacheRig rig;
    rig.params.indirectWays = 4;
    rig.cache = std::make_unique<StreamCacheController>(
        rig.params, rig.table, rig.noc, rig.ext,
        DramTimingParams::hbm3Unit(), 256_KiB, 2000);
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    Cycles t = 0;
    for (ElemId e = 0; e < 128; ++e) {
        t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
    }
    for (ElemId e = 0; e < 128; ++e) {
        t = send(*rig.cache, 0, rig.accessOf(sid, e), t).ready;
    }
    // Second pass hits (working set fits).
    EXPECT_GE(rig.cache->cacheHits(), 100u);
    EXPECT_DOUBLE_EQ(rig.cache->wayPredictionRate(), 1.0);
}

TEST(StreamCache, BreakdownRequestsMatchAccesses)
{
    CacheRig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    rig.allocateEverything();
    for (ElemId e = 0; e < 50; ++e) {
        send(*rig.cache, 0, rig.accessOf(sid, e), e * 100000);
    }
    EXPECT_EQ(rig.cache->breakdown().requests, 50u);
    EXPECT_EQ(rig.cache->cacheHits() + rig.cache->cacheMisses(), 50u);
}

} // namespace
} // namespace ndpext
