/** Integration tests: full systems running real workloads (small scale). */

#include <gtest/gtest.h>

#include <string>

#include "system/host_system.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 200'000;
    cfg.finalize();
    return cfg;
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    return p;
}

TEST(SystemConfig, PresetsAreConsistent)
{
    const auto scaled = SystemConfig::scaledDefault();
    EXPECT_EQ(scaled.numUnits(), 64u);
    const auto paper = SystemConfig::paperScale();
    EXPECT_EQ(paper.numUnits(), 128u);
    EXPECT_EQ(paper.unitCacheBytes, 256_MiB);
    EXPECT_EQ(paper.cache.affineCapBytesPerUnit, 16_MiB);
    EXPECT_EQ(paper.runtime.epochCycles, 50'000'000u);
}

TEST(SystemConfig, RejectsGeometryThatOverflowsUnitId)
{
    // 1024 x 1024 stacks of 1024 x 5 units is 5 * 2^30 units, which
    // numUnits() would wrap to 2^30. validate() alone: no machine.
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = cfg.stacksY = cfg.unitsX = 1024;
    cfg.unitsY = 5;
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("more units than a 32-bit unit id holds"),
              std::string::npos)
        << error;

    // 2^64 units: a product that 64-bit arithmetic would wrap to zero.
    cfg.stacksX = cfg.stacksY = 65536;
    cfg.unitsX = cfg.unitsY = 65536;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("32-bit unit id"), std::string::npos) << error;

    cfg.stacksX = 0;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("zero units"), std::string::npos) << error;
}

TEST(SystemConfig, PolicyNamesRoundTrip)
{
    for (const auto kind :
         {PolicyKind::NdpExt, PolicyKind::NdpExtStatic, PolicyKind::Jigsaw,
          PolicyKind::Whirlpool, PolicyKind::Nexus,
          PolicyKind::StaticInterleave}) {
        EXPECT_EQ(policyFromName(policyName(kind)), kind);
    }
}

TEST(NdpSystem, RunsPageRankToCompletion)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.accesses, 8u * 4000u);
    EXPECT_GT(res.bd.requests, 0u);
    EXPECT_GT(res.energy.totalNj(), 0.0);
    EXPECT_GE(res.missRate, 0.0);
    EXPECT_LE(res.missRate, 1.0);
}

class NdpSystemRuns : public ::testing::TestWithParam<RunCase>
{
  protected:
    RunResult
    run(const Workload& w) const
    {
        SystemConfig cfg = tinyConfig();
        if (GetParam().faulty) {
            addFaults(cfg, 3, 150'000, 1e-5);
        }
        NdpSystem sys(cfg, GetParam().policy);
        return sys.run(w);
    }
};

/**
 * Two runs of one configuration agree bit for bit on every reported
 * quantity: cycles, the latency breakdown, energy, the degraded-mode
 * counters and every stat except the host wall-clock ones.
 */
TEST_P(NdpSystemRuns, DeterministicAcrossRuns)
{
    auto w = makeWorkload(GetParam().workload);
    w->prepare(tinyParams());
    const RunResult a = run(*w);
    const RunResult b = run(*w);
    if (GetParam().workload == std::string("backprop")) {
        // backprop writes its read-only weights: the exceptions are
        // raised inline, once per stream.
        EXPECT_GE(a.writeExceptions, 1u);
    }
    if (GetParam().faulty) {
        EXPECT_EQ(a.degraded.failedUnits, 1u);
        EXPECT_EQ(a.degraded.emergencyReconfigs, 1u);
    }

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.bd.requests, b.bd.requests);
    EXPECT_EQ(a.bd.metadata, b.bd.metadata);
    EXPECT_EQ(a.bd.icnIntra, b.bd.icnIntra);
    EXPECT_EQ(a.bd.icnInter, b.bd.icnInter);
    EXPECT_EQ(a.bd.dramCache, b.bd.dramCache);
    EXPECT_EQ(a.bd.extMem, b.bd.extMem);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_DOUBLE_EQ(a.metadataHitRate, b.metadataHitRate);
    EXPECT_DOUBLE_EQ(a.energy.staticNj, b.energy.staticNj);
    EXPECT_DOUBLE_EQ(a.energy.ndpDramNj, b.energy.ndpDramNj);
    EXPECT_DOUBLE_EQ(a.energy.extDramNj, b.energy.extDramNj);
    EXPECT_DOUBLE_EQ(a.energy.cxlLinkNj, b.energy.cxlLinkNj);
    EXPECT_DOUBLE_EQ(a.energy.icnNj, b.energy.icnNj);
    EXPECT_DOUBLE_EQ(a.energy.sramNj, b.energy.sramNj);
    EXPECT_EQ(a.writeExceptions, b.writeExceptions);
    EXPECT_EQ(a.invalidatedRows, b.invalidatedRows);
    EXPECT_EQ(a.survivedRows, b.survivedRows);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    EXPECT_EQ(a.slbMisses, b.slbMisses);
    EXPECT_EQ(a.degraded.linkRetries, b.degraded.linkRetries);
    EXPECT_EQ(a.degraded.retriesExhausted, b.degraded.retriesExhausted);
    EXPECT_EQ(a.degraded.poisonedReads, b.degraded.poisonedReads);
    EXPECT_EQ(a.degraded.poisonEscalations, b.degraded.poisonEscalations);
    EXPECT_EQ(a.degraded.failedUnitRedirects,
              b.degraded.failedUnitRedirects);
    EXPECT_EQ(a.degraded.dramFaultRefetches, b.degraded.dramFaultRefetches);
    EXPECT_EQ(a.degraded.failedUnits, b.degraded.failedUnits);
    EXPECT_EQ(a.degraded.emergencyReconfigs, b.degraded.emergencyReconfigs);
    EXPECT_EQ(a.degraded.cyclesDegraded, b.degraded.cyclesDegraded);
    expectSameStats(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NdpSystemRuns,
    ::testing::Values(
        RunCase{"pr", "pr", PolicyKind::NdpExt, false},
        RunCase{"bfs_interleave", "bfs", PolicyKind::StaticInterleave,
                false},
        RunCase{"backprop", "backprop", PolicyKind::NdpExt, false},
        RunCase{"pr_faulty", "pr", PolicyKind::NdpExt, true}),
    [](const ::testing::TestParamInfo<RunCase>& info) {
        return std::string(info.param.name);
    });

class PolicyRunTest : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyRunTest, CompletesAndAccountsLatency)
{
    auto w = makeWorkload("recsys");
    w->prepare(tinyParams());
    NdpSystem sys(tinyConfig(), GetParam());
    const auto res = sys.run(*w);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.accesses, 8u * 4000u);
    // Latency breakdown buckets only accumulate for L1 misses.
    EXPECT_GT(res.bd.requests, 0u);
    EXPECT_GT(res.bd.total(), 0u);
    if (isCachelinePolicy(GetParam())) {
        EXPECT_LE(res.metadataHitRate, 1.0);
    } else {
        // Stream policies pay no per-line metadata DRAM accesses.
        EXPECT_DOUBLE_EQ(res.metadataHitRate, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyRunTest,
    ::testing::Values(PolicyKind::NdpExt, PolicyKind::NdpExtStatic,
                      PolicyKind::Jigsaw, PolicyKind::Whirlpool,
                      PolicyKind::Nexus, PolicyKind::StaticInterleave),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
        std::string n = policyName(info.param);
        for (auto& c : n) {
            if (c == '-') {
                c = '_';
            }
        }
        return n;
    });

TEST(NdpSystem, NdpExtBeatsStaticInterleaveOnPageRank)
{
    auto w = makeWorkload("pr");
    WorkloadParams p = tinyParams();
    p.accessesPerCore = 8000;
    w->prepare(p);
    NdpSystem a(tinyConfig(), PolicyKind::NdpExt);
    NdpSystem b(tinyConfig(), PolicyKind::StaticInterleave);
    const auto ra = a.run(*w);
    const auto rb = b.run(*w);
    EXPECT_LT(ra.cycles, rb.cycles)
        << "NDPExt should outperform static cacheline interleaving";
}

TEST(NdpSystem, HmcVariantRuns)
{
    auto w = makeWorkload("hotspot");
    w->prepare(tinyParams());
    SystemConfig cfg = tinyConfig();
    cfg.memType = NdpMemType::Hmc2;
    cfg.finalize();
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    EXPECT_GT(res.cycles, 0u);
}

TEST(HostSystem, RunsAndIsSlowerThanNdp)
{
    auto w = makeWorkload("pr");
    WorkloadParams p = tinyParams();
    p.numCores = 64; // host core count
    w->prepare(p);
    HostParams hp;
    HostSystem host(hp);
    const auto rh = host.run(*w);
    EXPECT_GT(rh.cycles, 0u);
    EXPECT_EQ(rh.accesses, 64u * 4000u);
    EXPECT_EQ(rh.policy, "host");
}

TEST(NdpSystem, WriteHeavyWorkloadTriggersExceptions)
{
    auto w = makeWorkload("backprop");
    w->prepare(tinyParams());
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    // backprop writes the (initially read-only) weight matrix in phase 2.
    EXPECT_GE(res.writeExceptions, 1u);
}

TEST(NdpSystem, AccountingInvariantsHold)
{
    auto w = makeWorkload("recsys");
    w->prepare(tinyParams());
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    // Request accounting: every L1 miss is a memory-system request.
    EXPECT_EQ(res.bd.requests, res.accesses - res.l1Hits);
    // Hit/miss/uncached/bypass partition the requests.
    const double parts = res.stats.get("cache.hits")
        + res.stats.get("cache.misses") + res.stats.get("cache.uncached")
        + res.stats.get("cache.bypasses");
    EXPECT_DOUBLE_EQ(parts, static_cast<double>(res.bd.requests));
    // Energy components are all non-negative and total is positive.
    EXPECT_GE(res.energy.staticNj, 0.0);
    EXPECT_GE(res.energy.ndpDramNj, 0.0);
    EXPECT_GE(res.energy.extDramNj, 0.0);
    EXPECT_GE(res.energy.cxlLinkNj, 0.0);
    EXPECT_GE(res.energy.icnNj, 0.0);
    EXPECT_GT(res.energy.totalNj(), 0.0);
    // Completion time covers the per-core maximum.
    for (CoreId c = 0; c < 8; ++c) {
        EXPECT_LE(res.stats.get("core" + std::to_string(c) + ".cycles"),
                  static_cast<double>(res.cycles));
    }
}

TEST(NdpSystem, MshrAblationSlowsThingsDown)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    SystemConfig cfg = tinyConfig();
    cfg.core.mshrs = 1; // strict stall-on-miss
    NdpSystem strict(cfg, PolicyKind::NdpExt);
    NdpSystem mlp(tinyConfig(), PolicyKind::NdpExt);
    const auto r1 = strict.run(*w);
    const auto r8 = mlp.run(*w);
    EXPECT_GT(r1.cycles, r8.cycles)
        << "memory-level parallelism should hide latency";
}

TEST(NdpSystem, ReconfigurationHappens)
{
    auto w = makeWorkload("pr");
    WorkloadParams p = tinyParams();
    p.accessesPerCore = 8000;
    w->prepare(p);
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    EXPECT_GE(res.reconfigurations, 1u);
}

} // namespace
} // namespace ndpext
