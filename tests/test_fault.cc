/**
 * Tests for fault injection and graceful degradation: the FaultInjector
 * itself, CXL retry/poison behavior, failed-unit redirects, emergency
 * reconfiguration, and end-to-end degraded runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "ndp/stream_cache.h"
#include "runtime/ndp_runtime.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// ------------------------------------------------------ FaultInjector

TEST(FaultInjector, DisabledByDefault)
{
    FaultInjector f;
    EXPECT_FALSE(f.enabled());
    EXPECT_FALSE(f.linkError());
    EXPECT_FALSE(f.poisonRead(0x1000));
    EXPECT_FALSE(f.dramBitFault());
    EXPECT_EQ(f.nextFailureAt(), FaultInjector::kNoFailure);
}

TEST(FaultInjector, DeterministicAcrossInstances)
{
    FaultParams p;
    p.seed = 99;
    p.cxlTransientProb = 0.25;
    p.dramBitProb = 0.1;
    FaultInjector a(p);
    FaultInjector b(p);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.linkError(), b.linkError());
        EXPECT_EQ(a.dramBitFault(), b.dramBitFault());
    }
    EXPECT_EQ(a.linkErrorsInjected(), b.linkErrorsInjected());
    EXPECT_GT(a.linkErrorsInjected(), 0u);
}

TEST(FaultInjector, FaultClassesDrawIndependentStreams)
{
    // Enabling poison must not change the link-error sequence: each
    // class owns a separate seeded RNG.
    FaultParams link_only;
    link_only.seed = 7;
    link_only.cxlTransientProb = 0.3;
    FaultParams both = link_only;
    both.cxlPoisonProb = 0.5;

    FaultInjector a(link_only);
    FaultInjector b(both);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.linkError(), b.linkError()) << "draw " << i;
        b.poisonRead(static_cast<Addr>(i) * 64); // interleaved draws
    }
}

TEST(FaultInjector, PoisonIsStickyPerCacheline)
{
    FaultParams p;
    p.cxlPoisonProb = 1.0;
    FaultInjector f(p);
    EXPECT_TRUE(f.poisonRead(0x1000));
    EXPECT_TRUE(f.isPoisoned(0x1000));
    EXPECT_TRUE(f.isPoisoned(0x103f)); // same 64 B line
    EXPECT_FALSE(f.isPoisoned(0x1040)); // next line untouched
    EXPECT_TRUE(f.poisonRead(0x1000)); // still poisoned
    EXPECT_EQ(f.linesPoisoned(), 1u);
}

TEST(FaultInjector, ScheduledFailuresFireInOrderOnce)
{
    FaultParams p;
    p.unitFailures = {{3, 500}, {1, 100}, {3, 900}};
    FaultInjector f(p);
    EXPECT_EQ(f.nextFailureAt(), 100u);
    EXPECT_TRUE(f.popFailuresUpTo(50).empty());
    const auto first = f.popFailuresUpTo(100);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0], 1u);
    EXPECT_TRUE(f.unitFailed(1));
    EXPECT_FALSE(f.unitFailed(3));
    // Unit 3 is scheduled twice; it must fire only once.
    const auto rest = f.popFailuresUpTo(1000);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], 3u);
    EXPECT_EQ(f.nextFailureAt(), FaultInjector::kNoFailure);
    EXPECT_EQ(f.firstFailureAt(), 100u);
    EXPECT_EQ(f.failedUnitCount(), 2u);
}

// ------------------------------------------------------ parseFaultSpec

TEST(ParseFaultSpec, AcceptsAllClasses)
{
    FaultParams p;
    std::string err;
    EXPECT_TRUE(parseFaultSpec("unit:12@5M", 8, p, &err)) << err;
    ASSERT_EQ(p.unitFailures.size(), 1u);
    EXPECT_EQ(p.unitFailures[0].unit, 12u);
    EXPECT_EQ(p.unitFailures[0].at, 5'000'000u);

    EXPECT_TRUE(parseFaultSpec("stack:1@2K", 8, p, &err)) << err;
    EXPECT_EQ(p.unitFailures.size(), 9u); // 1 + the stack's 8 units
    EXPECT_EQ(p.unitFailures[1].unit, 8u);
    EXPECT_EQ(p.unitFailures.back().unit, 15u);

    EXPECT_TRUE(parseFaultSpec("cxl-transient:p=0.5", 8, p, &err)) << err;
    EXPECT_DOUBLE_EQ(p.cxlTransientProb, 0.5);
    EXPECT_TRUE(parseFaultSpec("cxl-poison:p=1e-5", 8, p, &err)) << err;
    EXPECT_DOUBLE_EQ(p.cxlPoisonProb, 1e-5);
    EXPECT_TRUE(parseFaultSpec("dram-bit:p=0.25", 8, p, &err)) << err;
    EXPECT_DOUBLE_EQ(p.dramBitProb, 0.25);
    EXPECT_TRUE(p.anyFaults());
}

TEST(ParseFaultSpec, RejectsMalformedSpecs)
{
    FaultParams p;
    std::string err;
    for (const char* bad :
         {"", "unit", "unit:", "unit:3", "unit:3@", "unit:x@5M",
          "unit:3@5X", "unit:3@-1", "cxl-poison", "cxl-poison:0.5",
          "cxl-poison:p=", "cxl-poison:p=2.0", "cxl-poison:p=-0.1",
          "cxl-poison:p=abc", "dram-bit:q=0.5", "nonsense:p=0.5",
          // Ids are 32-bit, a stack's last unit id too (8 per stack).
          "unit:4294967296@5K", "unit:4294967301@5K", "unit:-1@5K",
          "stack:536870912@1K",
          // The cycle count must fit 64 bits after its suffix.
          "unit:3@18446744073709552K", "unit:3@18446744073709551616",
          "cxl-poison:p=0.5x", "cxl-poison:p= 0.5", "cxl-poison:p=nan"}) {
        err.clear();
        EXPECT_FALSE(parseFaultSpec(bad, 8, p, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    EXPECT_TRUE(p.unitFailures.empty());
    // stack specs need units-per-stack.
    EXPECT_FALSE(parseFaultSpec("stack:0@1K", 0, p, &err));
}

TEST(ParseFaultSpec, LargestIdsFitTheirUnitIds)
{
    FaultParams p;
    std::string err;
    EXPECT_TRUE(parseFaultSpec("unit:4294967295@1K", 8, p, &err)) << err;
    EXPECT_TRUE(parseFaultSpec("stack:536870911@1K", 8, p, &err)) << err;
    ASSERT_EQ(p.unitFailures.size(), 9u);
    EXPECT_EQ(p.unitFailures[1].unit, 4294967288u);
    EXPECT_EQ(p.unitFailures.back().unit, 4294967295u);
    // SystemConfig::validate then rejects ids past the machine's units.
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.faults = p;
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("nonexistent unit"), std::string::npos) << error;
}

// ------------------------------------------------- CXL degraded paths

TEST(ExtendedMemory, TransientErrorsRetryWithBackoff)
{
    const CxlParams cxl;
    ExtendedMemory clean(cxl, DramTimingParams::ddr5Extended(), 2000);
    ExtendedMemory faulty(cxl, DramTimingParams::ddr5Extended(), 2000);

    FaultParams p;
    p.cxlTransientProb = 1.0; // every attempt fails
    p.maxLinkRetries = 3;
    FaultInjector f(p);
    faulty.setFaultInjector(&f);

    const Cycles ok = clean.access(0x1000, 64, false, 0).done;
    const Cycles degraded = faulty.access(0x1000, 64, false, 0).done;
    EXPECT_GT(degraded, ok); // retries cost link latency + backoff
    EXPECT_EQ(faulty.linkRetries(), 3u);
    EXPECT_EQ(faulty.retriesExhausted(), 1u);
}

TEST(ExtendedMemory, PoisonedReadIsFlagged)
{
    ExtendedMemory ext(CxlParams{}, DramTimingParams::ddr5Extended(),
                       2000);
    FaultParams p;
    p.cxlPoisonProb = 1.0;
    FaultInjector f(p);
    ext.setFaultInjector(&f);

    EXPECT_TRUE(ext.access(0x2000, 64, false, 0).poisoned);
    EXPECT_FALSE(ext.access(0x2000, 64, true, 0).poisoned); // writes never
    EXPECT_EQ(ext.poisonedReads(), 1u);
}

// ------------------------------------- unit failure + reconfiguration

struct Rig
{
    MeshTopology topo{2, 1, 2, 2}; // 8 units
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
    addStream(StreamType type, std::uint64_t bytes, std::uint32_t elem)
    {
        auto cfg = StreamConfig::dense(
            "s" + std::to_string(table.numStreams()), type,
            0x100000 + table.numStreams() * 0x1000000, bytes, elem);
        cfg.readOnly = true;
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

    /** Drive accesses from every core so samplers observe demand. */
    Cycles
    touchAll(const std::vector<StreamId>& sids, Cycles t)
    {
        for (const StreamId sid : sids) {
            const StreamConfig& cfg = table.stream(sid);
            for (CoreId c = 0; c < cache->numUnits(); ++c) {
                for (ElemId e = 0; e < 64; ++e) {
                    Access acc;
                    acc.sid = sid;
                    acc.elem = (e * 7 + c) % cfg.numElems();
                    acc.addr = cfg.addrOf(acc.elem);
                    acc.size = cfg.elemSize;
                    acc.isWrite = false;
                    t = send(*cache, c, acc, t).ready;
                }
            }
        }
        return t;
    }
};

TEST(UnitFailure, EmergencyReconfigExcludesFailedUnit)
{
    Rig rig;
    std::vector<StreamId> sids;
    sids.push_back(rig.addStream(StreamType::Indirect, 128_KiB, 8));
    sids.push_back(rig.addStream(StreamType::Affine, 128_KiB, 8));

    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<NdpExtConfigurator>(rig.configParams(), rig.noc));
    runtime.start();
    rig.touchAll(sids, 0);

    const UnitId dead = 3;
    runtime.onUnitFailures({dead});
    EXPECT_EQ(runtime.emergencyReconfigurations(), 1u);
    EXPECT_EQ(runtime.failedUnits(), 1u);
    EXPECT_TRUE(rig.cache->unitFailed(dead));

    // Acceptance: the post-failure configuration allocates zero capacity
    // on the failed unit, for every stream.
    std::size_t allocated = 0;
    for (const StreamId sid : sids) {
        const StreamAlloc* alloc = rig.cache->remap().alloc(sid);
        if (alloc == nullptr) {
            continue;
        }
        ++allocated;
        EXPECT_EQ(alloc->shareRows[dead], 0u)
            << "stream " << sid << " still holds rows on the dead unit";
        EXPECT_GT(alloc->totalRows(), 0u)
            << "stream " << sid << " lost all capacity";
    }
    EXPECT_GT(allocated, 0u) << "emergency config allocated nothing";

    // Accesses after the failure never touch the dead unit's DRAM (the
    // controller asserts on any DRAM access to a failed unit) and the
    // accounting invariant still holds.
    rig.touchAll(sids, 1'000'000);
    const auto& bd = rig.cache->breakdown();
    EXPECT_EQ(rig.cache->cacheHits() + rig.cache->cacheMisses()
                  + rig.cache->uncachedStreamAccesses()
                  + rig.cache->bypasses(),
              bd.requests);

    // A second failure of the same unit is a no-op.
    runtime.onUnitFailures({dead});
    EXPECT_EQ(runtime.emergencyReconfigurations(), 1u);
    EXPECT_EQ(runtime.failedUnits(), 1u);
}

TEST(UnitFailure, StaticPolicyRedirectsInsteadOfReconfiguring)
{
    Rig rig;
    std::vector<StreamId> sids;
    sids.push_back(rig.addStream(StreamType::Indirect, 256_KiB, 8));

    NdpRuntime runtime(
        RuntimeParams{}, *rig.cache,
        std::make_unique<StaticEqualConfigurator>(*rig.cache));
    runtime.start();
    rig.touchAll(sids, 0);

    runtime.onUnitFailures({2});
    EXPECT_EQ(runtime.emergencyReconfigurations(), 0u);

    // The dead unit's share is still in the remap table; accesses that
    // hash there must redirect to extended memory, not wedge or abort.
    rig.touchAll(sids, 2'000'000);
    EXPECT_GT(rig.cache->failedUnitRedirects(), 0u);
    const auto& bd = rig.cache->breakdown();
    EXPECT_EQ(rig.cache->cacheHits() + rig.cache->cacheMisses()
                  + rig.cache->uncachedStreamAccesses()
                  + rig.cache->bypasses(),
              bd.requests);
}

TEST(UnitFailure, ConfigAlgorithmExcludesFailedUnits)
{
    Rig rig;
    const StreamId sid = rig.addStream(StreamType::Indirect, 512_KiB, 8);

    ConfigAlgorithm algo(rig.configParams(), rig.noc);
    StreamDemand d;
    d.sid = sid;
    d.granuleBytes = 64;
    d.readOnly = true;
    d.footprintBytes = 512_KiB;
    std::vector<std::uint64_t> caps;
    for (std::uint64_t c = 1_KiB; c <= 256_KiB; c *= 2) {
        caps.push_back(c);
    }
    std::vector<double> misses(caps.size(), 100.0);
    d.curve = MissCurve(caps, std::move(misses));
    d.curve.setZeroMisses(1000.0);
    for (UnitId u = 0; u < rig.cache->numUnits(); ++u) {
        d.accUnits.push_back(u);
        d.accCounts.push_back(100);
    }

    std::vector<bool> failed(rig.cache->numUnits(), false);
    failed[0] = failed[5] = true;
    algo.setFailedUnits(failed);
    const auto out = algo.run({d});
    ASSERT_FALSE(out.empty());
    for (const auto& [id, alloc] : out) {
        (void)id;
        EXPECT_EQ(alloc.shareRows[0], 0u);
        EXPECT_EQ(alloc.shareRows[5], 0u);
    }
}

// ------------------------------------------------- end-to-end degraded

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

TEST(DegradedRun, SurvivesUnitFailureWithNonzeroCounters)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());

    SystemConfig cfg = tinyConfig();
    cfg.faults.seed = 3;
    cfg.faults.unitFailures = {{5, 100'000}};
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    const auto res = sys.run(*w);

    // Acceptance: the run completes with nonzero degraded counters.
    EXPECT_GT(res.cycles, 100'000u);
    EXPECT_EQ(res.accesses, 8u * 4000u);
    EXPECT_EQ(res.degraded.failedUnits, 1u);
    EXPECT_EQ(res.degraded.emergencyReconfigs, 1u);
    EXPECT_GT(res.degraded.cyclesDegraded, 0u);
    EXPECT_TRUE(res.degraded.any());
}

TEST(DegradedRun, AllFaultClassesPreserveAccounting)
{
    auto w = makeWorkload("bfs");
    w->prepare(tinyParams());

    SystemConfig cfg = tinyConfig();
    cfg.faults.seed = 11;
    cfg.faults.cxlTransientProb = 1e-2;
    cfg.faults.cxlPoisonProb = 1e-3;
    cfg.faults.dramBitProb = 1e-2;
    cfg.faults.unitFailures = {{2, 100'000}};
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    const auto res = sys.run(*w);

    EXPECT_GT(res.degraded.linkRetries, 0u);
    EXPECT_GT(res.degraded.dramFaultRefetches, 0u);
    EXPECT_EQ(res.degraded.failedUnits, 1u);
    // hits + misses + uncached + bypasses == requests, faults and all.
    const double hits = res.stats.get("cache.hits");
    const double misses = res.stats.get("cache.misses");
    const double uncached = res.stats.get("cache.uncached");
    const double bypasses = res.stats.get("cache.bypasses");
    EXPECT_DOUBLE_EQ(hits + misses + uncached + bypasses,
                     static_cast<double>(res.bd.requests));
}

TEST(DegradedRun, DeterministicForSameSeed)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());

    auto faulty = []() {
        SystemConfig cfg = tinyConfig();
        cfg.faults.seed = 21;
        cfg.faults.cxlTransientProb = 1e-3;
        cfg.faults.dramBitProb = 1e-3;
        cfg.faults.unitFailures = {{1, 120'000}};
        return cfg;
    };
    NdpSystem s1(faulty(), PolicyKind::NdpExt);
    NdpSystem s2(faulty(), PolicyKind::NdpExt);
    const auto r1 = s1.run(*w);
    const auto r2 = s2.run(*w);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.bd.requests, r2.bd.requests);
    EXPECT_EQ(r1.degraded.linkRetries, r2.degraded.linkRetries);
    EXPECT_EQ(r1.degraded.dramFaultRefetches,
              r2.degraded.dramFaultRefetches);
    EXPECT_EQ(r1.degraded.failedUnitRedirects,
              r2.degraded.failedUnitRedirects);
    EXPECT_DOUBLE_EQ(r1.missRate, r2.missRate);
}

TEST(DegradedRun, FaultFreeRunsAreUnaffectedByWiring)
{
    // The fault hooks must cost nothing when no injector is attached:
    // a run with default (empty) FaultParams behaves identically to the
    // seed simulator and reports all-zero degraded counters.
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    EXPECT_FALSE(res.degraded.any());
    EXPECT_EQ(res.degraded.cyclesDegraded, 0u);
}

} // namespace
} // namespace ndpext
