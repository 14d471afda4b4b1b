/** Tests for the epoch runtime and static configuration. */

#include <gtest/gtest.h>

#include "ndp/stream_cache.h"
#include "runtime/ndp_runtime.h"
#include "runtime/static_config.h"
#include "test_util.h"

namespace ndpext {
namespace {

struct Rig
{
    MeshTopology topo{2, 1, 2, 2};
    NocModel noc{topo, NocParams{}};
    CxlParams cxlParams;
    ExtendedMemory ext{cxlParams, DramTimingParams::ddr5Extended(), 2000};
    StreamTable table;
    StreamCacheParams params;
    std::unique_ptr<StreamCacheController> cache;

    Rig()
    {
        params.sampler.minCapacityBytes = 1_KiB;
        params.sampler.maxCapacityBytes = 256_KiB;
        params.sampler.numCapacities = 8;
        params.affineCapBytesPerUnit = 64_KiB;
        cache = std::make_unique<StreamCacheController>(
            params, table, noc, ext, DramTimingParams::hbm3Unit(),
            256_KiB, 2000);
    }

    StreamId
    addStream(StreamType type, std::uint64_t bytes, std::uint32_t elem,
              bool read_only)
    {
        auto cfg = StreamConfig::dense(
            "s" + std::to_string(table.numStreams()), type,
            0x100000 + table.numStreams() * 0x1000000, bytes, elem);
        cfg.readOnly = read_only;
        return table.configureStream(cfg);
    }

    ConfigParams
    configParams() const
    {
        ConfigParams p;
        p.numUnits = cache->numUnits();
        p.rowsPerUnit = cache->rowsPerUnit();
        p.rowBytes = cache->rowBytes();
        p.dramLatency = 40;
        return p;
    }
};

TEST(StaticConfig, CoversAllStreamsWithinCapacity)
{
    Rig rig;
    for (int i = 0; i < 4; ++i) {
        rig.addStream(i % 2 == 0 ? StreamType::Affine
                                 : StreamType::Indirect,
                      64_KiB, 8, true);
    }
    const auto out = makeStaticEqualConfig(
        rig.table, rig.cache->numUnits(), rig.cache->rowsPerUnit(),
        rig.cache->rowBytes(), rig.params.affineCapBytesPerUnit);
    EXPECT_EQ(out.size(), 4u);
    std::vector<std::uint64_t> used(rig.cache->numUnits(), 0);
    for (const auto& [sid, a] : out) {
        (void)sid;
        EXPECT_EQ(a.numGroups, 1u);
        EXPECT_GT(a.totalRows(), 0u);
        for (UnitId u = 0; u < rig.cache->numUnits(); ++u) {
            used[u] += a.shareRows[u];
        }
    }
    for (const auto rows : used) {
        EXPECT_LE(rows, rig.cache->rowsPerUnit());
    }
}

TEST(StaticConfig, AffineCapClampsAffineStreams)
{
    Rig rig;
    rig.addStream(StreamType::Affine, 8_MiB, 8, true);
    const auto out = makeStaticEqualConfig(
        rig.table, rig.cache->numUnits(), rig.cache->rowsPerUnit(),
        rig.cache->rowBytes(), 4 * rig.cache->rowBytes());
    ASSERT_EQ(out.size(), 1u);
    for (UnitId u = 0; u < rig.cache->numUnits(); ++u) {
        EXPECT_LE(out[0].second.shareRows[u], 4u);
    }
}

TEST(Runtime, StartAssignsSamplers)
{
    Rig rig;
    const auto s0 = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    const auto s1 = rig.addStream(StreamType::Affine, 64_KiB, 8, true);
    ConfigParams cp = rig.configParams();
    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<NdpExtConfigurator>(cp, rig.noc));
    runtime.start();
    // Both streams covered somewhere.
    bool covered0 = false;
    bool covered1 = false;
    for (UnitId u = 0; u < rig.cache->numUnits(); ++u) {
        covered0 |= rig.cache->samplerBank(u).samplerFor(s0) != nullptr;
        covered1 |= rig.cache->samplerBank(u).samplerFor(s1) != nullptr;
    }
    EXPECT_TRUE(covered0);
    EXPECT_TRUE(covered1);
    EXPECT_GE(runtime.streamsCovered(), 2u);
}

TEST(Runtime, StaticConfiguratorAllocatesAtStart)
{
    Rig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    NdpRuntime runtime(RuntimeParams{}, *rig.cache,
                       std::make_unique<StaticEqualConfigurator>(
                           *rig.cache));
    runtime.start();
    EXPECT_EQ(runtime.reconfigurations(), 1u);
    EXPECT_NE(rig.cache->remap().alloc(sid), nullptr);
    EXPECT_GT(rig.cache->remap().alloc(sid)->totalRows(), 0u);
}

TEST(Runtime, EpochReconfiguresFromProfile)
{
    Rig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    ConfigParams cp = rig.configParams();
    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<NdpExtConfigurator>(cp, rig.noc));
    runtime.start();
    // Drive accesses from unit 2 so the profile shows demand there.
    const StreamConfig& cfg = rig.table.stream(sid);
    Cycles t = 0;
    for (ElemId e = 0; e < 2000; ++e) {
        Access a;
        a.sid = sid;
        a.elem = e % cfg.numElems();
        a.addr = cfg.addrOf(a.elem);
        t = send(*rig.cache, 2, a, t).ready;
    }
    runtime.onEpochEnd(t);
    // One initial (default) configuration at start plus the epoch one.
    EXPECT_EQ(runtime.reconfigurations(), 2u);
    const StreamAlloc* alloc = rig.cache->remap().alloc(sid);
    ASSERT_NE(alloc, nullptr);
    EXPECT_GT(alloc->shareRows[2], 0u) << "space should land on unit 2";
}

TEST(Runtime, PartialMethodStopsAdapting)
{
    Rig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    RuntimeParams rp;
    rp.method = RuntimeParams::Method::Partial;
    rp.partialUntilCycles = 1000;
    ConfigParams cp = rig.configParams();
    NdpRuntime runtime(
        rp, *rig.cache,
        std::make_unique<NdpExtConfigurator>(cp, rig.noc));
    runtime.start();
    const StreamConfig& cfg = rig.table.stream(sid);
    Access a;
    a.sid = sid;
    a.elem = 1;
    a.addr = cfg.addrOf(1);
    send(*rig.cache, 0, a, 0);
    runtime.onEpochEnd(500); // within the partial window
    EXPECT_EQ(runtime.reconfigurations(), 2u); // initial + this epoch
    send(*rig.cache, 0, a, 2000);
    runtime.onEpochEnd(5000); // beyond it
    EXPECT_EQ(runtime.reconfigurations(), 2u);
}

TEST(Runtime, StableConfigsAreSkipped)
{
    // If the profile barely changes between epochs, the runtime must not
    // reapply (and thereby invalidate) a near-identical configuration.
    Rig rig;
    const auto sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    ConfigParams cp = rig.configParams();
    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<NdpExtConfigurator>(cp, rig.noc));
    runtime.start();
    const StreamConfig& cfg = rig.table.stream(sid);
    // Same access pattern in two consecutive epochs.
    Cycles t = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (ElemId e = 0; e < 2000; ++e) {
            Access a;
            a.sid = sid;
            a.elem = e % cfg.numElems();
            a.addr = cfg.addrOf(a.elem);
            t = send(*rig.cache, 0, a, t).ready;
        }
        runtime.onEpochEnd(t);
    }
    // With an identical profile every epoch, later configurations are
    // near-identical and at least one must have been skipped.
    EXPECT_GE(runtime.skippedReconfigurations(), 1u);
    EXPECT_GE(runtime.reconfigurations(), 1u);
}

TEST(Runtime, ReportsTimings)
{
    Rig rig;
    rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    ConfigParams cp = rig.configParams();
    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<NdpExtConfigurator>(cp, rig.noc));
    runtime.start();
    // The cumulative solver time is the sum of the timed phases so far.
    EXPECT_GE(runtime.lastAssignMicros(), 0.0);
    EXPECT_GE(runtime.lastConfigMicros(), 0.0);
    EXPECT_DOUBLE_EQ(runtime.solverWallMicros(),
                     runtime.lastAssignMicros() + runtime.lastConfigMicros());
}

} // namespace
} // namespace ndpext
