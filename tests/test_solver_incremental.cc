/**
 * Incremental placement control plane: max-flow warm-start seeding,
 * cold-vs-warm sampler assignment equivalence (bit-identical on an
 * empty delta, coverage parity under churn), the anytime iteration
 * budget in Algorithm 1 (cap honored, bounded regret, off-by-default
 * bit-identity), delta-set derivation from demand fingerprints and
 * churn notifications, and checkpoint/resume byte-identity with the
 * solver flags enabled at 1 and 8 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ndp/stream_cache.h"
#include "runtime/config_algorithm.h"
#include "runtime/max_flow.h"
#include "runtime/ndp_runtime.h"
#include "runtime/sampler_assign.h"
#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- MaxFlow warm-start seeding -----------------------------------------

TEST(MaxFlowSeed, SeedPathPushesOneUnit)
{
    MaxFlow f(3);
    const auto e1 = f.addEdge(0, 1, 2);
    const auto e2 = f.addEdge(1, 2, 2);
    EXPECT_TRUE(f.seedPath({e1, e2}));
    EXPECT_EQ(f.flowOn(e1), 1);
    EXPECT_EQ(f.flowOn(e2), 1);
    EXPECT_EQ(f.augmentingPaths(), 0u);
}

TEST(MaxFlowSeed, SeedPathRejectsSaturatedEdge)
{
    MaxFlow f(3);
    const auto e1 = f.addEdge(0, 1, 1);
    const auto e2 = f.addEdge(1, 2, 2);
    EXPECT_TRUE(f.seedPath({e1, e2}));
    // e1 is now full: the second seed must be refused atomically,
    // leaving the first unit of flow intact.
    EXPECT_FALSE(f.seedPath({e1, e2}));
    EXPECT_EQ(f.flowOn(e1), 1);
    EXPECT_EQ(f.flowOn(e2), 1);
}

TEST(MaxFlowSeed, SeededSolveReachesColdValue)
{
    // Max-flow value is unique, so any feasible seed must end at the
    // same total; solve() on a fully seeded graph needs zero BFS work.
    MaxFlow cold(4);
    cold.addEdge(0, 1, 1);
    cold.addEdge(0, 2, 1);
    cold.addEdge(1, 3, 1);
    cold.addEdge(2, 3, 1);
    const auto want = cold.solve(0, 3);
    ASSERT_EQ(want, 2);

    MaxFlow warm(4);
    const auto a = warm.addEdge(0, 1, 1);
    const auto b = warm.addEdge(0, 2, 1);
    const auto c = warm.addEdge(1, 3, 1);
    const auto d = warm.addEdge(2, 3, 1);
    EXPECT_TRUE(warm.seedPath({a, c}));
    EXPECT_TRUE(warm.seedPath({b, d}));
    EXPECT_EQ(warm.solve(0, 3), want);
    EXPECT_EQ(warm.augmentingPaths(), 0u);
}

// --- Cold vs warm sampler assignment ------------------------------------

std::vector<std::vector<bool>>
randomAccessed(std::uint32_t units, std::uint32_t streams,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<bool>> accessed(
        units, std::vector<bool>(streams, false));
    for (std::uint32_t s = 0; s < streams; ++s) {
        accessed[s % units][s] = true;
        for (std::uint32_t u = 0; u < units; ++u) {
            if (rng.nextBool(0.3)) {
                accessed[u][s] = true;
            }
        }
    }
    return accessed;
}

std::vector<StreamId>
allStreams(std::uint32_t streams)
{
    std::vector<StreamId> out(streams);
    for (std::uint32_t s = 0; s < streams; ++s) {
        out[s] = s;
    }
    return out;
}

TEST(SamplerWarm, EmptyDeltaIsBitIdenticalWithZeroWork)
{
    const SamplerAssigner assigner(2);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto accessed = randomAccessed(6, 40, seed);
        const auto streams = allStreams(40);
        SamplerAssignStats cold_stats;
        const auto cold = assigner.assign(accessed, streams, &cold_stats);
        SamplerAssignStats warm_stats;
        const auto warm =
            assigner.assignWarm(accessed, streams, cold, {}, &warm_stats);
        EXPECT_EQ(warm.perUnit, cold.perUnit) << "seed " << seed;
        EXPECT_EQ(warm.uncovered, cold.uncovered) << "seed " << seed;
        EXPECT_EQ(warm.covered, cold.covered) << "seed " << seed;
        EXPECT_EQ(warm_stats.augmentingPaths, 0u) << "seed " << seed;
        EXPECT_EQ(warm_stats.seededPairs, cold.covered) << "seed " << seed;
        EXPECT_GT(cold_stats.augmentingPaths, 0u) << "seed " << seed;
    }
}

TEST(SamplerWarm, CoverageParityUnderChurn)
{
    const SamplerAssigner assigner(2);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto accessed = randomAccessed(6, 40, seed);
        const auto streams = allStreams(40);
        const auto previous = assigner.assign(accessed, streams);

        // Re-roll every 5th stream's accessor set (the delta).
        std::vector<StreamId> delta;
        Rng churn(seed * 977);
        for (std::uint32_t s = 0; s < 40; s += 5) {
            delta.push_back(s);
            for (std::uint32_t u = 0; u < 6; ++u) {
                accessed[u][s] = churn.nextBool(0.3);
            }
            accessed[s % 6][s] = true;
        }
        const auto cold = assigner.assign(accessed, streams);
        SamplerAssignStats warm_stats;
        const auto warm = assigner.assignWarm(accessed, streams, previous,
                                              delta, &warm_stats);
        // Matchings are not unique in WHICH streams they cover, but the
        // max-flow value is: coverage counts must agree exactly.
        EXPECT_EQ(warm.covered, cold.covered) << "seed " << seed;
        EXPECT_EQ(warm.perUnit.size(), cold.perUnit.size());
        // The warm solve only re-derives the churned part.
        EXPECT_GT(warm_stats.seededPairs, 0u) << "seed " << seed;
    }
}

TEST(SamplerWarm, DepartedStreamsAreNeverSeeded)
{
    const SamplerAssigner assigner(2);
    auto accessed = randomAccessed(4, 20, 3);
    const auto streams = allStreams(20);
    const auto previous = assigner.assign(accessed, streams);

    // Streams 17..19 depart entirely.
    std::vector<StreamId> remaining = allStreams(17);
    for (auto& row : accessed) {
        row.resize(17);
    }
    const auto cold = assigner.assign(accessed, remaining);
    const auto warm =
        assigner.assignWarm(accessed, remaining, previous, {17, 18, 19});
    EXPECT_EQ(warm.covered, cold.covered);
    for (const auto& unit : warm.perUnit) {
        for (const auto sid : unit) {
            EXPECT_LT(sid, 17u);
        }
    }
}

// --- Anytime budget in Algorithm 1 --------------------------------------

constexpr std::uint32_t kCfgUnits = 8;
constexpr std::uint32_t kCfgRowsPerUnit = 32;
constexpr std::uint32_t kCfgRowBytes = 2048;

struct CfgFixture
{
    MeshTopology topo{2, 1, 2, 2};
    NocModel noc{topo, NocParams{}};

    ConfigParams
    params() const
    {
        ConfigParams p;
        p.numUnits = kCfgUnits;
        p.rowsPerUnit = kCfgRowsPerUnit;
        p.rowBytes = kCfgRowBytes;
        p.dramLatency = 40;
        return p;
    }
};

MissCurve
linearCurve(std::uint64_t useful, double misses)
{
    std::vector<std::uint64_t> caps;
    std::vector<double> m;
    for (std::uint64_t c = 2048; c <= useful * 2; c *= 2) {
        caps.push_back(c);
        const double frac = std::min(
            1.0, static_cast<double>(c) / static_cast<double>(useful));
        m.push_back(misses * (1.0 - frac));
    }
    MissCurve curve(caps, std::move(m));
    curve.setZeroMisses(misses);
    return curve;
}

std::vector<StreamDemand>
denseDemands(std::uint32_t count)
{
    std::vector<StreamDemand> demands;
    for (std::uint32_t s = 0; s < count; ++s) {
        StreamDemand d;
        d.sid = s;
        d.footprintBytes = 64 * 1024;
        d.readOnly = true;
        d.granuleBytes = 8;
        for (std::uint32_t u = 0; u < kCfgUnits; ++u) {
            d.accUnits.push_back(u);
            d.accCounts.push_back(1000 + s * 37 + u * 13);
        }
        d.curve = linearCurve(d.footprintBytes, 5000.0 + s * 100);
        demands.push_back(std::move(d));
    }
    return demands;
}

std::uint64_t
rowsOnUnit(const std::vector<std::pair<StreamId, StreamAlloc>>& out,
           UnitId u)
{
    std::uint64_t rows = 0;
    for (const auto& [sid, alloc] : out) {
        (void)sid;
        rows += alloc.shareRows[u];
    }
    return rows;
}

TEST(ConfigBudget, IterationCapHonoredAndCounted)
{
    CfgFixture fix;
    ConfigAlgorithm full(fix.params(), fix.noc);
    const auto full_out = full.run(denseDemands(16));
    ASSERT_GT(full.lastIterations(), 8u)
        << "fixture too small to exercise the budget";
    EXPECT_FALSE(full.lastBudgetHit());
    EXPECT_EQ(full.budgetHits(), 0u);

    ConfigParams capped_params = fix.params();
    capped_params.budgetIterations = 8;
    ConfigAlgorithm capped(capped_params, fix.noc);
    const auto capped_out = capped.run(denseDemands(16));
    EXPECT_LE(capped.lastIterations(), 8u);
    EXPECT_TRUE(capped.lastBudgetHit());
    EXPECT_EQ(capped.budgetHits(), 1u);

    // An interrupted run still emits a valid placement: per-unit
    // capacity respected, some bytes placed, objective bounded by the
    // converged solve's.
    for (UnitId u = 0; u < kCfgUnits; ++u) {
        EXPECT_LE(rowsOnUnit(capped_out, u), kCfgRowsPerUnit);
    }
    EXPECT_GT(capped.lastObjectiveBytes(), 0u);
    EXPECT_LE(capped.lastObjectiveBytes(), full.lastObjectiveBytes());
    EXPECT_GT(full_out.size(), 0u);
}

TEST(ConfigBudget, ZeroBudgetIsBitIdenticalToUnlimited)
{
    CfgFixture fix;
    ConfigAlgorithm base(fix.params(), fix.noc);
    const auto want = base.run(denseDemands(12));

    ConfigParams zero = fix.params();
    zero.budgetIterations = 0;
    ConfigAlgorithm same(zero, fix.noc);
    const auto got = same.run(denseDemands(12));

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_EQ(got[i].second.shareRows, want[i].second.shareRows);
        EXPECT_EQ(got[i].second.numGroups, want[i].second.numGroups);
    }
    EXPECT_EQ(same.lastIterations(), base.lastIterations());
    EXPECT_EQ(same.lastObjectiveBytes(), base.lastObjectiveBytes());
}

TEST(ConfigBudget, LargerBudgetNeverLosesIterations)
{
    CfgFixture fix;
    std::uint64_t prev_iters = 0;
    for (const std::uint64_t budget : {4ull, 16ull, 64ull}) {
        ConfigParams p = fix.params();
        p.budgetIterations = budget;
        ConfigAlgorithm algo(p, fix.noc);
        algo.run(denseDemands(16));
        EXPECT_LE(algo.lastIterations(), budget);
        EXPECT_GE(algo.lastIterations(), prev_iters);
        prev_iters = algo.lastIterations();
    }
}

// --- Delta-set derivation ------------------------------------------------

StreamDemand
fingerprintDemand()
{
    StreamDemand d;
    d.sid = 5;
    d.footprintBytes = 1 << 20;
    d.readOnly = true;
    d.accUnits = {0, 3};
    d.accCounts = {100, 200};
    d.curve = linearCurve(1 << 20, 10000.0);
    return d;
}

TEST(DemandFingerprint, StableAcrossCopies)
{
    const auto a = fingerprintDemand();
    const auto b = fingerprintDemand();
    EXPECT_EQ(demandFingerprint(a), demandFingerprint(b));
}

TEST(DemandFingerprint, QuantizationAbsorbsSamplerJitter)
{
    // Miss counts are bucketed (~19% wide in log space): small sampler
    // noise must not mark a stream dirty and defeat the warm start.
    // Bucket-centered values (2^(k/4) - 1, integer k) stay in their
    // bucket under a few percent of jitter; values near a boundary may
    // legitimately flip, so the test pins the centers.
    std::vector<std::uint64_t> caps;
    std::vector<double> centered;
    for (std::uint32_t i = 0; i < 8; ++i) {
        caps.push_back(2048ull << i);
        centered.push_back(std::exp2((56.0 - 4.0 * i) / 4.0) - 1.0);
    }
    auto a = fingerprintDemand();
    a.curve = MissCurve(caps, std::vector<double>(centered));
    auto b = fingerprintDemand();
    std::vector<double> jittered = centered;
    for (auto& m : jittered) {
        m *= 1.02;
    }
    b.curve = MissCurve(caps, std::move(jittered));
    EXPECT_EQ(demandFingerprint(a), demandFingerprint(b));
}

TEST(DemandFingerprint, DetectsRealChanges)
{
    const auto base = fingerprintDemand();

    auto bigger = fingerprintDemand();
    bigger.footprintBytes *= 2;
    EXPECT_NE(demandFingerprint(base), demandFingerprint(bigger));

    auto rw = fingerprintDemand();
    rw.readOnly = false;
    EXPECT_NE(demandFingerprint(base), demandFingerprint(rw));

    auto moved = fingerprintDemand();
    moved.accUnits = {1, 3};
    EXPECT_NE(demandFingerprint(base), demandFingerprint(moved));

    auto hotter = fingerprintDemand();
    std::vector<double> doubled = hotter.curve.misses();
    for (auto& m : doubled) {
        m *= 2.0;
    }
    hotter.curve =
        MissCurve(hotter.curve.capacities(), std::move(doubled));
    EXPECT_NE(demandFingerprint(base), demandFingerprint(hotter));
}

// --- Runtime-level churn and delta accounting ----------------------------

struct RuntimeRig
{
    MeshTopology topo{2, 1, 2, 2};
    NocModel noc{topo, NocParams{}};
    CxlParams cxlParams;
    ExtendedMemory ext{cxlParams, DramTimingParams::ddr5Extended(), 2000};
    StreamTable table;
    StreamCacheParams params;
    std::unique_ptr<StreamCacheController> cache;

    RuntimeRig()
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
    addStream(std::uint64_t bytes)
    {
        auto cfg = StreamConfig::dense(
            "s" + std::to_string(table.numStreams()),
            StreamType::Indirect,
            0x100000 + table.numStreams() * 0x1000000, bytes, 8);
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

    Cycles
    touch(StreamId sid, Cycles t)
    {
        const StreamConfig& cfg = table.stream(sid);
        for (ElemId e = 0; e < 2000; ++e) {
            Access a;
            a.sid = sid;
            a.elem = e % cfg.numElems();
            a.addr = cfg.addrOf(a.elem);
            t = send(*cache, 0, a, t).ready;
        }
        return t;
    }
};

TEST(RuntimeDelta, ChurnNotificationsEnterTheDeltaSet)
{
    // Twin runtimes over identical traffic; only one is churn-notified.
    // Fingerprint-driven delta contributions are identical by
    // determinism, so the difference isolates the churn path exactly
    // (no assumption that curves stabilize across epochs). The churned
    // stream is a third, never-touched one: its fingerprint is stable,
    // so the set union cannot absorb the notification into a
    // fingerprint-dirty entry.
    RuntimeRig plain_rig;
    RuntimeRig churn_rig;
    const auto p0 = plain_rig.addStream(64_KiB);
    const auto p1 = plain_rig.addStream(64_KiB);
    plain_rig.addStream(64_KiB); // quiet
    const auto c0 = churn_rig.addStream(64_KiB);
    const auto c1 = churn_rig.addStream(64_KiB);
    const auto c2 = churn_rig.addStream(64_KiB); // quiet
    ASSERT_EQ(p0, c0);
    ASSERT_EQ(p1, c1);
    RuntimeParams rp;
    rp.solverWarmStart = true;
    NdpRuntime plain(rp, *plain_rig.cache,
                     std::make_unique<NdpExtConfigurator>(
                         plain_rig.configParams(), plain_rig.noc));
    NdpRuntime churned(rp, *churn_rig.cache,
                       std::make_unique<NdpExtConfigurator>(
                           churn_rig.configParams(), churn_rig.noc));
    plain.start();
    churned.start();

    const auto epoch = [&](Cycles& tp, Cycles& tc) {
        tp = plain_rig.touch(p0, tp);
        tp = plain_rig.touch(p1, tp);
        tc = churn_rig.touch(c0, tc);
        tc = churn_rig.touch(c1, tc);
        plain.onEpochEnd(tp);
        churned.onEpochEnd(tc);
    };

    Cycles tp = 0;
    Cycles tc = 0;
    epoch(tp, tc);
    EXPECT_EQ(churned.solverDeltaStreams(), plain.solverDeltaStreams());

    // A notification adds exactly that stream to the next barrier's
    // delta: the quiet stream is never fingerprint-dirty after its
    // arrival epoch, so the twins differ by exactly one.
    churned.noteStreamChurn({c2});
    epoch(tp, tc);
    const auto plain_total = plain.solverDeltaStreams();
    const auto churn_total = churned.solverDeltaStreams();
    EXPECT_EQ(churn_total, plain_total + 1);

    // The churn list is consumed at the barrier, not sticky: the twins
    // advance in lockstep afterwards.
    const auto plain_before = plain.solverDeltaStreams();
    const auto churn_before = churned.solverDeltaStreams();
    epoch(tp, tc);
    EXPECT_EQ(churned.solverDeltaStreams() - churn_before,
              plain.solverDeltaStreams() - plain_before);
}

TEST(RuntimeDelta, WarmStartMatchesColdCoverage)
{
    // Two runtimes over identical traffic, warm start on vs off: every
    // epoch must cover the same number of streams.
    RuntimeRig cold_rig;
    RuntimeRig warm_rig;
    for (int i = 0; i < 4; ++i) {
        cold_rig.addStream(64_KiB);
        warm_rig.addStream(64_KiB);
    }
    RuntimeParams cold_rp;
    RuntimeParams warm_rp;
    warm_rp.solverWarmStart = true;
    NdpRuntime cold(cold_rp, *cold_rig.cache,
                    std::make_unique<NdpExtConfigurator>(
                        cold_rig.configParams(), cold_rig.noc));
    NdpRuntime warm(warm_rp, *warm_rig.cache,
                    std::make_unique<NdpExtConfigurator>(
                        warm_rig.configParams(), warm_rig.noc));
    cold.start();
    warm.start();
    Cycles tc = 0;
    Cycles tw = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (StreamId s = 0; s < 4; ++s) {
            tc = cold_rig.touch(s, tc);
            tw = warm_rig.touch(s, tw);
        }
        cold.onEpochEnd(tc);
        warm.onEpochEnd(tw);
        EXPECT_EQ(warm.streamsCovered(), cold.streamsCovered())
            << "epoch " << epoch;
    }
    EXPECT_GT(warm.solverWarmReused(), 0u);
    EXPECT_EQ(cold.solverWarmReused(), 0u);
}

// --- Checkpoint/resume byte-identity with solver flags on ----------------

SystemConfig
solverConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000;
    cfg.runtime.solverWarmStart = true;
    cfg.runtime.solverBudgetIters = 64;
    cfg.finalize();
    return cfg;
}

WorkloadParams
solverWorkloadParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 11;
    return p;
}

void
expectSameRun(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    expectSameStats(a, b);
}

TEST(SolverResume, WarmStartStateSurvivesResume)
{
    auto w = makeWorkload("pr");
    w->prepare(solverWorkloadParams());
    const std::string prefix = freshPrefix("solver_resume");

    NdpSystem golden(solverConfig(), PolicyKind::NdpExt);
    const RunResult want = golden.run(*w);
    EXPECT_GT(want.stats.get("runtime.solver.warmStartReused"), 0.0)
        << "warm start never engaged; test is vacuous";

    NdpSystem emitter(solverConfig(), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    const RunResult emitted = emitter.run(*w);
    expectSameRun(want, emitted);

    std::string newest;
    std::string error;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, &h, &error))
        << error;
    ASSERT_GE(h.epoch, 2u) << "run too short to exercise resume";

    // Resuming mid-run must restore the fingerprint map, the previous
    // assignment, and the solver counters: the completed run is
    // bit-identical to the uninterrupted one.
    for (const std::uint64_t epoch : {std::uint64_t{1}, h.epoch}) {
        NdpSystem resumed(solverConfig(), PolicyKind::NdpExt);
        const std::string image =
            prefix + "." + std::to_string(epoch) + ".ckpt";
        ASSERT_TRUE(resumed.setResume(image, *w, &error)) << error;
        const RunResult got = resumed.run(*w);
        expectSameRun(want, got);
    }
}

} // namespace
} // namespace ndpext
