/**
 * Memory-backend table and implementation coverage: the exact table,
 * lookup / did-you-mean, CLI spec parsing, per-backend timing semantics
 * (FR-FCFS reordering vs FCFS order, queue backpressure, starvation cap,
 * refresh blackouts, power-down wake penalties), checkpoint roundtrips
 * for every registered backend, and backend-mismatch rejection on
 * system resume.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/backend_refresh.h"
#include "mem/backend_sched.h"
#include "mem/dram.h"
#include "mem/mem_backend_registry.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

constexpr std::uint64_t kFreq = 2000; // 2 GHz core clock

MemBackendConfig
hbmConfig(const std::string& backend)
{
    return MemBackendConfig{backend, DramTimingParams::hbm3Unit()};
}

/** The backend's declared counters under "d", read now. */
StatGroup
finalCounters(const MemBackend& d)
{
    Counters list;
    d.counters(list, "d");
    StatGroup stats;
    stats.addAll(list);
    return stats;
}

// --- Backend table ------------------------------------------------------

TEST(MemBackendRegistry, ShipsAllFourBackends)
{
    // The exact table: every backend in name order with its tunable keys
    // in declaration order, so adding, dropping or renaming either shows.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        want = {
            {"banked", {}},
            {"fcfs", {"queue"}},
            {"frfcfs", {"queue", "cap"}},
            {"refresh",
             {"refi", "rfc", "pd-idle", "pd-exit", "sr-idle", "sr-exit"}},
        };
    const std::vector<MemBackendInfo>& rows = memBackends().rows();
    ASSERT_EQ(rows.size(), want.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, want[i].first);
        std::vector<std::string> keys;
        for (const Tunable& t : rows[i].tunables) {
            keys.push_back(t.key);
        }
        EXPECT_EQ(keys, want[i].second) << rows[i].name;
    }
    EXPECT_EQ(memBackends().names(),
              (std::vector<std::string>{"banked", "fcfs", "frfcfs",
                                        "refresh"}));
}

TEST(MemBackendRegistry, InfoCarriesDescriptionAndTunables)
{
    for (const MemBackendInfo& info : memBackends().rows()) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_TRUE(info.factory) << info.name;
        for (const Tunable& t : info.tunables) {
            EXPECT_FALSE(t.description.empty()) << info.name << "." << t.key;
        }
    }
}

TEST(MemBackendRegistry, FindUnknownReturnsNull)
{
    EXPECT_EQ(memBackends().find("no-such-backend"), nullptr);
    ASSERT_NE(memBackends().find("frfcfs"), nullptr);
    EXPECT_EQ(memBackends().find("frfcfs")->name, "frfcfs");
}

TEST(MemBackendRegistry, SuggestsNearbyNames)
{
    EXPECT_EQ(memBackends().suggest("frfcs"), "frfcfs");
    EXPECT_EQ(memBackends().suggest("refrsh"), "refresh");
    // Nothing plausible within the edit-distance budget.
    EXPECT_EQ(memBackends().suggest("zzzzzzzzzz"), "");
}

TEST(MemBackendRegistryDeathTest, DuplicateRegistrationIsFatal)
{
    // Two rows under one name would make find() pick one silently;
    // building such a table must stop the process instead.
    const auto row = [](const char* name) {
        MemBackendInfo info;
        info.name = name;
        return info;
    };
    EXPECT_DEATH(NamedTable<MemBackendInfo>(
                     "memory backend",
                     {row("banked"), row("fcfs"), row("banked")}),
                 "duplicate memory backend name: banked");
}

TEST(MemBackendCreate, SetsBackendNameOnEveryRegisteredBackend)
{
    for (const std::string& name : memBackends().names()) {
        const auto backend = createMemBackend(hbmConfig(name), kFreq);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->backendName(), name);
    }
}

TEST(MemBackendCreateDeathTest, UnknownNameIsFatal)
{
    EXPECT_DEATH(createMemBackend(hbmConfig("bogus"), kFreq),
                 "unknown memory backend");
}

// --- Spec parsing -------------------------------------------------------

TEST(MemBackendSpec, ParsesNameAndTunables)
{
    MemBackendConfig cfg;
    std::string error;
    ASSERT_TRUE(
        MemBackendConfig::parseSpec("frfcfs,queue=16,cap=2", &cfg, &error))
        << error;
    EXPECT_EQ(cfg.backend, "frfcfs");
    EXPECT_DOUBLE_EQ(cfg.tunable("queue", 0.0), 16.0);
    EXPECT_DOUBLE_EQ(cfg.tunable("cap", 0.0), 2.0);
    EXPECT_FALSE(cfg.timingSet); // no preset given: role default applies
}

TEST(MemBackendSpec, PresetResolvesTiming)
{
    MemBackendConfig cfg;
    std::string error;
    ASSERT_TRUE(
        MemBackendConfig::parseSpec("refresh,preset=lpddr5x", &cfg, &error))
        << error;
    EXPECT_TRUE(cfg.timingSet);
    EXPECT_EQ(cfg.timing.name, DramTimingParams::lpddr5x().name);
}

TEST(MemBackendSpec, RejectsMalformedInput)
{
    MemBackendConfig cfg;
    std::string error;
    EXPECT_FALSE(MemBackendConfig::parseSpec("", &cfg, &error));
    EXPECT_FALSE(MemBackendConfig::parseSpec("frfcfs,queue", &cfg, &error));
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;
    EXPECT_FALSE(
        MemBackendConfig::parseSpec("frfcfs,queue=abc", &cfg, &error));
    EXPECT_NE(error.find("numeric"), std::string::npos) << error;
    for (const char* spec :
         {"frfcfs,queue=8x", "frfcfs,queue= 8", "frfcfs,queue=inf",
          "frfcfs,queue=1e999"}) {
        EXPECT_FALSE(MemBackendConfig::parseSpec(spec, &cfg, &error))
            << spec;
        EXPECT_NE(error.find("numeric"), std::string::npos) << error;
    }
    EXPECT_FALSE(MemBackendConfig::parseSpec(",queue=8", &cfg, &error));
    EXPECT_NE(error.find("empty name"), std::string::npos) << error;
    EXPECT_FALSE(
        MemBackendConfig::parseSpec("banked,preset=ddr9", &cfg, &error));
    EXPECT_NE(error.find("unknown timing preset"), std::string::npos)
        << error;
}

TEST(MemBackendSpec, ValidateRejectsTunablesOutsideTheirRange)
{
    // queue=0 and the refresh pair once panicked in the backend's
    // constructor; queue=-5 ran with -5.0 cast to uint32_t.
    struct Case
    {
        const char* spec;
        const char* diagnostic;
    };
    for (const Case& c :
         {Case{"frfcfs,queue=0", "queue=0 must be an integer in [1, "},
          Case{"frfcfs,queue=-5", "queue=-5 must be an integer in [1, "},
          Case{"fcfs,queue=8.5", "queue=8.5 must be an integer"},
          Case{"frfcfs,cap=0", "cap=0 must be an integer in [1, "},
          Case{"refresh,pd-exit=-1", "pd-exit=-1 must be an integer"},
          Case{"refresh,refi=1,rfc=5",
               "refi must exceed rfc in core cycles"},
          Case{"refresh,pd-idle=5000,sr-idle=4000",
               "sr-idle must be >= pd-idle"}}) {
        SystemConfig cfg = SystemConfig::scaledDefault();
        std::string error;
        ASSERT_TRUE(
            MemBackendConfig::parseSpec(c.spec, &cfg.memBackendUnit, &error))
            << error;
        EXPECT_FALSE(cfg.validate(&error)) << c.spec;
        EXPECT_NE(error.find("for role 'unit'"), std::string::npos)
            << error;
        EXPECT_NE(error.find(c.diagnostic), std::string::npos) << error;
    }
    // The defaults and the values the repo uses stay valid.
    for (const char* spec :
         {"frfcfs", "fcfs", "refresh", "frfcfs,queue=16,cap=2",
          "frfcfs,preset=lpddr5x,queue=16", "refresh,preset=lpddr5x",
          "refresh,pd-idle=1000000000,sr-idle=2000000000",
          "refresh,pd-idle=1000,sr-idle=5000,sr-exit=500"}) {
        SystemConfig cfg = SystemConfig::scaledDefault();
        std::string error;
        ASSERT_TRUE(
            MemBackendConfig::parseSpec(spec, &cfg.memBackendExt, &error))
            << error;
        EXPECT_TRUE(cfg.validate(&error)) << spec << ": " << error;
    }
}

TEST(MemBackendSpec, ValidateRejectsUnknownNameWithSuggestion)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.memBackendExt.backend = "frfcs";
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("did you mean 'frfcfs'"), std::string::npos)
        << error;
}

TEST(MemBackendSpec, ValidateRejectsUndeclaredTunable)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.memBackendExt.backend = "frfcfs";
    cfg.memBackendExt.setTunable("depth", "8"); // real key is "queue"
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("no tunable 'depth'"), std::string::npos)
        << error;
}

// --- Scheduler backends -------------------------------------------------

TEST(SchedBackend, FrFcfsReordersRowHitAheadOfConflict)
{
    // A(row 1), B(row 2), C(row 1) all arrive at t=0 on one bank. An
    // FR-FCFS controller serves C with the row-1 traffic (row hit); a
    // strict FCFS controller services in order and C pays the conflict.
    SchedDramBackend frfcfs(hbmConfig("frfcfs"), kFreq, true);
    frfcfs.accessRow(0, 1, 64, false, 0);
    frfcfs.accessRow(0, 2, 64, false, 0);
    EXPECT_TRUE(frfcfs.accessRow(0, 1, 64, false, 0).rowHit);

    SchedDramBackend fcfs(hbmConfig("fcfs"), kFreq, false);
    fcfs.accessRow(0, 1, 64, false, 0);
    fcfs.accessRow(0, 2, 64, false, 0);
    EXPECT_FALSE(fcfs.accessRow(0, 1, 64, false, 0).rowHit);
}

TEST(SchedBackend, FcfsSeesRowLeftByYoungestQueuedRequest)
{
    SchedDramBackend fcfs(hbmConfig("fcfs"), kFreq, false);
    fcfs.accessRow(0, 2, 64, false, 0);
    // Row 2 is still in flight; an in-order controller services this
    // request after it, against an open row 2.
    EXPECT_TRUE(fcfs.accessRow(0, 2, 64, false, 0).rowHit);
}

TEST(SchedBackend, FullQueueBackpressures)
{
    MemBackendConfig cfg = hbmConfig("frfcfs");
    cfg.setTunable("queue", "1");
    SchedDramBackend d(cfg, kFreq, true);
    const auto r1 = d.accessRow(0, 1, 64, false, 0);
    const auto r2 = d.accessRow(0, 1, 64, false, 0);
    // The second request waits for the only queue slot, then serializes
    // behind the first on the bank.
    EXPECT_GT(r2.done, r1.done);
    const StatGroup stats = finalCounters(d);
    EXPECT_DOUBLE_EQ(stats.get("d.queueFullStalls"), 1.0);
    EXPECT_GT(stats.get("d.queueStallCycles"), 0.0);
}

TEST(SchedBackend, StarvationCapDemotesEndlessRowHits)
{
    MemBackendConfig cfg = hbmConfig("frfcfs");
    cfg.setTunable("cap", "1");
    SchedDramBackend d(cfg, kFreq, true);
    d.accessRow(0, 9, 64, false, 0); // conflicting traffic, stays queued
    d.accessRow(0, 1, 64, false, 0); // row-1 stream starts
    // First reordered hit is allowed (streak 1)...
    EXPECT_TRUE(d.accessRow(0, 1, 64, false, 0).rowHit);
    // ...the next would starve the row-9 request past the cap.
    EXPECT_FALSE(d.accessRow(0, 1, 64, false, 0).rowHit);
    const StatGroup stats = finalCounters(d);
    EXPECT_DOUBLE_EQ(stats.get("d.starvationRounds"), 1.0);
}

TEST(SchedBackend, MatchesBankedLatencyWithoutContention)
{
    // A lone access sees the same closed-row latency under every
    // controller: scheduling only matters under contention.
    DramDevice banked(DramTimingParams::hbm3Unit(), kFreq);
    SchedDramBackend frfcfs(hbmConfig("frfcfs"), kFreq, true);
    const auto rb = banked.accessRow(0, 5, 64, false, 1000);
    const auto rs = frfcfs.accessRow(0, 5, 64, false, 1000);
    EXPECT_EQ(rb.done, rs.done);
    EXPECT_EQ(rb.rowHit, rs.rowHit);
}

// --- Refresh / power-down backend ---------------------------------------

/** Refresh backend with power-down management pushed out of the way. */
MemBackendConfig
refreshOnlyConfig()
{
    MemBackendConfig cfg{"refresh", DramTimingParams::ddr5Extended()};
    cfg.setTunable("pd-idle", "1000000000");
    cfg.setTunable("sr-idle", "2000000000");
    return cfg;
}

TEST(RefreshBackend, BlackoutWindowStallsAccesses)
{
    RefreshDramBackend d(refreshOnlyConfig(), kFreq);
    // t=0 is the start of a refresh blackout: the access waits out tRFC
    // (708 DDR cycles at 2400 MHz = 590 core cycles at 2 GHz).
    const auto r = d.accessRow(0, 5, 64, false, 0);
    EXPECT_EQ(r.done, 590 + d.rowClosedLatency());
    const StatGroup stats = finalCounters(d);
    EXPECT_DOUBLE_EQ(stats.get("d.refreshStalls"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("d.refreshStallCycles"), 590.0);
}

TEST(RefreshBackend, RefreshClosesOpenRows)
{
    RefreshDramBackend d(refreshOnlyConfig(), kFreq);
    // 9360 DDR cycles at 2400 MHz = 7800 core cycles between refreshes.
    const auto r1 = d.accessRow(0, 5, 64, false, 600);
    EXPECT_FALSE(r1.rowHit);
    // Within the same refresh window the row stays open...
    EXPECT_TRUE(d.accessRow(0, 5, 64, false, r1.done).rowHit);
    // ...but the next window's all-bank refresh precharges it.
    EXPECT_FALSE(d.accessRow(0, 5, 64, false, 7800 + 600).rowHit);
}

TEST(RefreshBackend, PowerDownWakePaysExitLatency)
{
    MemBackendConfig cfg{"refresh", DramTimingParams::ddr5Extended()};
    cfg.setTunable("refi", "1000000000");
    cfg.setTunable("rfc", "1");
    cfg.setTunable("pd-idle", "2000");
    cfg.setTunable("pd-exit", "30");
    RefreshDramBackend d(cfg, kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 10);
    // Long idle gap: the device entered fast-exit power-down; the row
    // buffer survives but the access pays the wake penalty.
    const Cycles later = r1.done + 5000;
    const auto r2 = d.accessRow(0, 5, 64, false, later);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_EQ(r2.done, later + 30 + d.rowHitLatency());
    const StatGroup stats = finalCounters(d);
    EXPECT_DOUBLE_EQ(stats.get("d.pdWakes"), 1.0);
    EXPECT_GT(stats.get("d.pdResidencyCycles"), 0.0);
}

TEST(RefreshBackend, SelfRefreshWakeLosesRowBuffer)
{
    MemBackendConfig cfg{"refresh", DramTimingParams::ddr5Extended()};
    cfg.setTunable("refi", "1000000000");
    cfg.setTunable("rfc", "1");
    cfg.setTunable("pd-idle", "1000");
    cfg.setTunable("sr-idle", "5000");
    cfg.setTunable("sr-exit", "500");
    RefreshDramBackend d(cfg, kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 10);
    const Cycles later = r1.done + 20000; // beyond the sr-idle threshold
    const auto r2 = d.accessRow(0, 5, 64, false, later);
    EXPECT_FALSE(r2.rowHit); // self-refresh precharged the row
    EXPECT_EQ(r2.done, later + 500 + d.rowClosedLatency());
    const StatGroup stats = finalCounters(d);
    EXPECT_DOUBLE_EQ(stats.get("d.srWakes"), 1.0);
}

// --- Checkpoint roundtrips ----------------------------------------------

/**
 * Drive a deterministic access mix, snapshot, restore into a fresh
 * instance, and require the restored device to time the future
 * identically to the original (the definition of complete state
 * capture).
 */
TEST(MemBackendCheckpoint, EveryBackendRoundTrips)
{
    for (const std::string& name : memBackends().names()) {
        const MemBackendConfig cfg = hbmConfig(name);
        const auto original = createMemBackend(cfg, kFreq);
        for (std::uint64_t i = 0; i < 200; ++i) {
            original->access(i * 1216, 64, i % 3 == 0, i * 7);
        }

        ckpt::Writer w;
        ckpt::Archive save(w);
        original->checkpoint(save);
        const auto restored = createMemBackend(cfg, kFreq);
        ckpt::Reader r(w.bytes());
        ckpt::Archive load(r);
        restored->checkpoint(load);
        EXPECT_TRUE(r.atEnd()) << name;

        EXPECT_EQ(original->rowHits(), restored->rowHits()) << name;
        EXPECT_DOUBLE_EQ(original->dynamicEnergyNj(),
                         restored->dynamicEnergyNj())
            << name;
        for (std::uint64_t i = 0; i < 50; ++i) {
            const auto a = original->access(i * 4096, 64, false, 2000 + i);
            const auto b = restored->access(i * 4096, 64, false, 2000 + i);
            EXPECT_EQ(a.done, b.done) << name << " access " << i;
            EXPECT_EQ(a.rowHit, b.rowHit) << name << " access " << i;
        }
    }
}

TEST(MemBackendCheckpoint, HashDiffersAcrossBackendsAndTunables)
{
    const auto hashOf = [](const MemBackendConfig& cfg) {
        ckpt::Writer w;
        cfg.hashInto(w);
        return w.bytes();
    };
    const MemBackendConfig banked = hbmConfig("banked");
    const MemBackendConfig frfcfs = hbmConfig("frfcfs");
    MemBackendConfig tuned = frfcfs;
    tuned.setTunable("queue", "16");
    EXPECT_NE(hashOf(banked), hashOf(frfcfs));
    EXPECT_NE(hashOf(frfcfs), hashOf(tuned));
}

// --- System-level resume ------------------------------------------------

SystemConfig
tinyConfig(const std::string& ext_backend)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000;
    cfg.memBackendExt.backend = ext_backend;
    cfg.finalize();
    return cfg;
}

std::unique_ptr<Workload>
tinyWorkload()
{
    auto w = makeWorkload("pr");
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    w->prepare(p);
    return w;
}

TEST(MemBackendResume, FrFcfsResumesBitIdentically)
{
    const auto w = tinyWorkload();
    const std::string prefix = freshPrefix("mem_backend_frfcfs_resume");

    NdpSystem golden(tinyConfig("frfcfs"), PolicyKind::NdpExt);
    const RunResult want = golden.run(*w);

    NdpSystem emitter(tinyConfig("frfcfs"), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(*w);

    std::string newest;
    std::string error;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, &h, &error))
        << error;
    ASSERT_GE(h.epoch, 2u) << "run too short to exercise resume";

    NdpSystem resumed(tinyConfig("frfcfs"), PolicyKind::NdpExt);
    ASSERT_TRUE(resumed.setResume(newest, *w, &error)) << error;
    const RunResult got = resumed.run(*w);
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.accesses, got.accesses);
    EXPECT_EQ(want.l1Hits, got.l1Hits);
    EXPECT_DOUBLE_EQ(want.missRate, got.missRate);
    EXPECT_DOUBLE_EQ(want.energy.totalNj(), got.energy.totalNj());
    // Scheduler state made it into the image: the resumed run reports
    // the same controller counters as the uninterrupted one.
    EXPECT_DOUBLE_EQ(want.stats.get("ext.dram.queueSamples"),
                     got.stats.get("ext.dram.queueSamples"));
}

TEST(MemBackendResume, BackendMismatchIsRejected)
{
    const auto w = tinyWorkload();
    const std::string prefix = freshPrefix("mem_backend_mismatch");

    NdpSystem emitter(tinyConfig("banked"), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(*w);

    std::string newest;
    std::string error;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, nullptr, &error))
        << error;

    // The image was taken under the banked extended memory; resuming
    // under an FR-FCFS controller must fail the config-hash check.
    NdpSystem resumed(tinyConfig("frfcfs"), PolicyKind::NdpExt);
    EXPECT_FALSE(resumed.setResume(newest, *w, &error));
    EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

} // namespace
} // namespace ndpext
