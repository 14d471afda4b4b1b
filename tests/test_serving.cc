/**
 * Serving-frontend coverage: the arrival-process table and every
 * built-in process (determinism, gap bounds, mid-stream checkpoint),
 * tenant-spec parsing and validation diagnostics, the composed
 * multi-tenant workload (stream ownership, churn windows, config hash),
 * the open-loop generator (window-confined arrivals, reserved-first
 * scheduling, SLO accounting, byte-identical checkpoint round trips),
 * and full-system invariants: thread-count invariance, resume
 * bit-identity, drained-run stat conservation, and reserved-QoS p99
 * attainment beating best-effort under overload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "serving/arrival_process.h"
#include "serving/serving_config.h"
#include "serving/serving_workload.h"
#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- Arrival table ------------------------------------------------------

TEST(ArrivalRegistry, BuiltinProcessesAreRegistered)
{
    // The exact table: every process in name order with its tunable keys
    // in declaration order.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        want = {
            {"bursty", {"burst-factor", "burst-frac", "burst-cycles"}},
            {"diurnal", {"amp", "day-cycles"}},
            {"fixed", {}},
            {"poisson", {}},
        };
    const std::vector<ArrivalInfo>& rows = arrivalProcesses().rows();
    ASSERT_EQ(rows.size(), want.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, want[i].first);
        EXPECT_FALSE(rows[i].description.empty()) << rows[i].name;
        EXPECT_TRUE(rows[i].factory) << rows[i].name;
        std::vector<std::string> keys;
        for (const Tunable& t : rows[i].tunables) {
            keys.push_back(t.key);
        }
        EXPECT_EQ(keys, want[i].second) << rows[i].name;
    }
    EXPECT_EQ(arrivalProcesses().names(),
              (std::vector<std::string>{"bursty", "diurnal", "fixed",
                                        "poisson"}));
    EXPECT_EQ(arrivalProcesses().find("nope"), nullptr);
}

TEST(ArrivalRegistry, SuggestsClosestName)
{
    EXPECT_EQ(arrivalProcesses().suggest("posson"), "poisson");
    EXPECT_EQ(arrivalProcesses().suggest("burstee"), "bursty");
    EXPECT_EQ(arrivalProcesses().suggest("qqqqqqqqqq"), "");
}

// --- Arrival processes --------------------------------------------------

ArrivalParams
params(double period)
{
    ArrivalParams p;
    p.periodCycles = period;
    return p;
}

TEST(ArrivalProcess, FixedGapIsExactlyThePeriod)
{
    auto p = createArrivalProcess("fixed", params(1234.0), 1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(p->nextGap(), 1234u);
    }
}

TEST(ArrivalProcess, GapsAreAtLeastOneCycle)
{
    // Sub-cycle mean periods must still produce strictly increasing
    // arrival times.
    for (const auto& name : arrivalProcesses().names()) {
        auto p = createArrivalProcess(name, params(1.5), 99);
        for (int i = 0; i < 2000; ++i) {
            EXPECT_GE(p->nextGap(), 1u) << name;
        }
    }
}

TEST(ArrivalProcess, SameSeedSameSequence)
{
    for (const auto& name : arrivalProcesses().names()) {
        auto a = createArrivalProcess(name, params(800.0), 7);
        auto b = createArrivalProcess(name, params(800.0), 7);
        for (int i = 0; i < 500; ++i) {
            EXPECT_EQ(a->nextGap(), b->nextGap()) << name << " @" << i;
        }
    }
}

TEST(ArrivalProcess, DifferentSeedsDiverge)
{
    for (const auto& name : arrivalProcesses().names()) {
        if (name == "fixed") {
            continue; // deterministic gap, seed-independent by design
        }
        auto a = createArrivalProcess(name, params(800.0), 7);
        auto b = createArrivalProcess(name, params(800.0), 8);
        bool differ = false;
        for (int i = 0; i < 500 && !differ; ++i) {
            differ = a->nextGap() != b->nextGap();
        }
        EXPECT_TRUE(differ) << name;
    }
}

TEST(ArrivalProcess, PoissonMeanTracksPeriod)
{
    auto p = createArrivalProcess("poisson", params(1000.0), 3);
    double sum = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        sum += static_cast<double>(p->nextGap());
    }
    EXPECT_NEAR(sum / n, 1000.0, 50.0);
}

TEST(ArrivalProcess, CheckpointResumesMidStream)
{
    // Serialize after 57 draws, restore into an instance built with a
    // *different* seed: the continuation must match the original
    // exactly (deserialize restores all state, including the Rng).
    for (const auto& name : arrivalProcesses().names()) {
        auto a = createArrivalProcess(name, params(600.0), 11);
        for (int i = 0; i < 57; ++i) {
            a->nextGap();
        }
        ckpt::Writer w;
        a->serialize(w);

        auto b = createArrivalProcess(name, params(600.0), 999);
        ckpt::Reader r(w.bytes());
        b->deserialize(r);
        for (int i = 0; i < 300; ++i) {
            EXPECT_EQ(a->nextGap(), b->nextGap()) << name << " @" << i;
        }
    }
}

// --- Tenant-spec parsing ------------------------------------------------

TEST(TenantSpec, ParsesFullSpec)
{
    TenantSpec t;
    std::string error;
    ASSERT_TRUE(parseTenantSpec(
        "name=emb,workload=recsys,arrival=bursty,period=1500,req=32,"
        "qos=reserved,reserve-pct=25,slo=40000,arrive=2,depart=9,"
        "footprint-mb=8,burst-factor=4",
        &t, &error))
        << error;
    EXPECT_EQ(t.name, "emb");
    EXPECT_EQ(t.workload, "recsys");
    EXPECT_EQ(t.arrival, "bursty");
    EXPECT_DOUBLE_EQ(t.periodCycles, 1500.0);
    EXPECT_EQ(t.requestAccesses, 32u);
    EXPECT_TRUE(t.reserved);
    EXPECT_DOUBLE_EQ(t.reservePct, 25.0);
    EXPECT_EQ(t.sloCycles, 40'000u);
    EXPECT_EQ(t.arriveEpoch, 2u);
    EXPECT_EQ(t.departEpoch, 9u);
    EXPECT_EQ(t.footprintBytes, 8_MiB);
    ASSERT_EQ(t.arrivalTunables.size(), 1u);
    EXPECT_EQ(t.arrivalTunables[0].first, "burst-factor");
    EXPECT_DOUBLE_EQ(t.arrivalTunables[0].second, 4.0);
}

TEST(TenantSpec, DefaultsArePoissonBestEffort)
{
    TenantSpec t;
    std::string error;
    ASSERT_TRUE(parseTenantSpec("workload=mv,period=2000", &t, &error))
        << error;
    EXPECT_EQ(t.arrival, "poisson");
    EXPECT_FALSE(t.reserved);
    EXPECT_GT(t.sloCycles, 0u);
    EXPECT_GE(t.requestAccesses, 1u);
}

TEST(TenantSpec, ParseErrorsNameTheOffendingKey)
{
    TenantSpec t;
    std::string error;
    EXPECT_FALSE(parseTenantSpec("", &t, &error));
    EXPECT_NE(error.find("empty spec"), std::string::npos) << error;

    EXPECT_FALSE(parseTenantSpec("workload=mv,period", &t, &error));
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;

    EXPECT_FALSE(parseTenantSpec("workload=mv,qos=gold", &t, &error));
    EXPECT_NE(error.find("qos"), std::string::npos) << error;

    EXPECT_FALSE(parseTenantSpec("workload=mv,period=abc", &t, &error));
    EXPECT_NE(error.find("period"), std::string::npos) << error;

    EXPECT_FALSE(parseTenantSpec("workload=mv,slo=-5", &t, &error));
    EXPECT_NE(error.find("slo"), std::string::npos) << error;

    TenantSpec fresh;
    EXPECT_FALSE(parseTenantSpec("period=100", &fresh, &error));
    EXPECT_NE(error.find("workload"), std::string::npos) << error;
}

// --- Serving-config validation ------------------------------------------

TenantSpec
tenant(const std::string& name, const std::string& workload,
       double period)
{
    TenantSpec t;
    t.name = name;
    t.workload = workload;
    t.periodCycles = period;
    return t;
}

std::string
validationError(const ServingConfig& cfg)
{
    std::string error;
    EXPECT_FALSE(validateServingConfig(cfg, &error));
    return error;
}

TEST(ValidateServing, EmptyConfigIsValid)
{
    std::string error;
    EXPECT_TRUE(validateServingConfig(ServingConfig{}, &error)) << error;
}

TEST(ValidateServing, RejectsNonPositiveArrivalRate)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "mv", 0.0));
    std::string error = validationError(cfg);
    EXPECT_NE(error.find("--tenant[0]"), std::string::npos) << error;
    EXPECT_NE(error.find("arrival rate must be positive"),
              std::string::npos)
        << error;

    cfg.tenants[0].periodCycles = -3.0;
    error = validationError(cfg);
    EXPECT_NE(error.find("arrival rate must be positive"),
              std::string::npos)
        << error;
}

TEST(ValidateServing, RejectsTooManyTenants)
{
    ServingConfig cfg;
    for (std::size_t i = 0; i <= kMaxTenants; ++i) {
        cfg.tenants.push_back(
            tenant("t" + std::to_string(i), "mv", 1000.0));
    }
    const std::string error = validationError(cfg);
    EXPECT_NE(error.find("exceeds the limit"), std::string::npos)
        << error;
}

TEST(ValidateServing, UnknownNamesGetDidYouMean)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "recsyss", 1000.0));
    std::string error = validationError(cfg);
    EXPECT_NE(error.find("did you mean 'recsys'"), std::string::npos)
        << error;

    cfg.tenants[0].workload = "recsys";
    cfg.tenants[0].arrival = "posson";
    error = validationError(cfg);
    EXPECT_NE(error.find("did you mean 'poisson'"), std::string::npos)
        << error;

    cfg.tenants[0].arrival = "bursty";
    cfg.tenants[0].arrivalTunables.emplace_back("burst-fac", 3.0);
    error = validationError(cfg);
    EXPECT_NE(error.find("did you mean 'burst-frac'"), std::string::npos)
        << error;
}

TEST(ValidateServing, RejectsMetricUnsafeTenantNames)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a.b", "mv", 1000.0));
    const std::string error = validationError(cfg);
    EXPECT_NE(error.find("letters, digits"), std::string::npos) << error;
}

TEST(ValidateServing, RejectsDuplicateTenantNames)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "mv", 1000.0));
    cfg.tenants.push_back(tenant("a", "pr", 1000.0));
    const std::string error = validationError(cfg);
    EXPECT_NE(error.find("duplicate tenant name"), std::string::npos)
        << error;
}

TEST(ValidateServing, RejectsBadQosCombinations)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "mv", 1000.0));
    cfg.tenants[0].reservePct = 10.0; // without qos=reserved
    std::string error = validationError(cfg);
    EXPECT_NE(error.find("requires qos=reserved"), std::string::npos)
        << error;

    cfg.tenants[0].reserved = true;
    cfg.tenants[0].reservePct = 60.0;
    cfg.tenants.push_back(tenant("b", "mv", 1000.0));
    cfg.tenants[1].reserved = true;
    cfg.tenants[1].reservePct = 50.0;
    error = validationError(cfg);
    EXPECT_NE(error.find("at most 90%"), std::string::npos) << error;
}

TEST(ValidateServing, RejectsEmptyChurnWindow)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "mv", 1000.0));
    cfg.tenants[0].arriveEpoch = 4;
    cfg.tenants[0].departEpoch = 4;
    const std::string error = validationError(cfg);
    EXPECT_NE(error.find("churn window is empty"), std::string::npos)
        << error;
}

TEST(ValidateServing, RejectsZeroHorizonAndZeroSlo)
{
    ServingConfig cfg;
    cfg.tenants.push_back(tenant("a", "mv", 1000.0));
    cfg.horizonCycles = 0;
    std::string error = validationError(cfg);
    EXPECT_NE(error.find("--horizon"), std::string::npos) << error;

    cfg.horizonCycles = 100'000;
    cfg.tenants[0].sloCycles = 0;
    error = validationError(cfg);
    EXPECT_NE(error.find("slo must be > 0"), std::string::npos) << error;
}

TEST(ValidateServing, PropagatesThroughSystemConfigValidate)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.serving.tenants.push_back(tenant("a", "mv", -1.0));
    std::string error;
    EXPECT_FALSE(cfg.validate(&error));
    EXPECT_NE(error.find("arrival rate must be positive"),
              std::string::npos)
        << error;
}

// --- The composed workload ----------------------------------------------

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

ServingConfig
twoTenantConfig()
{
    ServingConfig cfg;
    cfg.horizonCycles = 100'000;
    cfg.tenants.push_back(tenant("emb", "recsys", 4000.0));
    cfg.tenants.push_back(tenant("lin", "mv", 5000.0));
    cfg.tenants[0].arrival = "fixed";
    cfg.tenants[1].arrival = "fixed";
    return cfg;
}

TEST(ServingWorkload, ComposesTenantStreamsWithOwnership)
{
    ServingWorkload w(twoTenantConfig(), 10'000);
    w.prepare(tinyParams());

    const auto& configs = w.streamConfigs();
    ASSERT_GT(configs.size(), 1u);
    bool sawEmb = false;
    bool sawLin = false;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(configs[i].sid, i);
        const std::uint32_t owner = w.streamTenant(i);
        ASSERT_LT(owner, 2u);
        const std::string& prefix = owner == 0 ? "emb." : "lin.";
        EXPECT_EQ(configs[i].name.rfind(prefix, 0), 0u)
            << configs[i].name;
        sawEmb = sawEmb || owner == 0;
        sawLin = sawLin || owner == 1;
    }
    EXPECT_TRUE(sawEmb);
    EXPECT_TRUE(sawLin);

    // Default windows span [0, horizon).
    EXPECT_EQ(w.activeStart(0), 0u);
    EXPECT_EQ(w.activeEnd(0), 100'000u);
}

TEST(ServingWorkload, ChurnWindowsAreEpochAligned)
{
    ServingConfig cfg = twoTenantConfig();
    cfg.tenants[1].arriveEpoch = 2;
    cfg.tenants[1].departEpoch = 7;
    ServingWorkload w(cfg, 10'000);
    w.prepare(tinyParams());
    EXPECT_EQ(w.activeStart(1), 20'000u);
    EXPECT_EQ(w.activeEnd(1), 70'000u);

    // Windows past the horizon clamp to it.
    ServingConfig late = twoTenantConfig();
    late.tenants[0].arriveEpoch = 50; // 500k > 100k horizon
    ServingWorkload w2(late, 10'000);
    w2.prepare(tinyParams());
    EXPECT_EQ(w2.activeStart(0), 100'000u);
}

TEST(ServingWorkload, HashExtraCoversServingConfig)
{
    const auto hashOf = [](const ServingConfig& cfg, Cycles epoch) {
        ServingWorkload w(cfg, epoch);
        ckpt::Writer wr;
        w.hashExtra(wr);
        return wr.bytes();
    };
    const ServingConfig base = twoTenantConfig();
    ServingConfig slo = base;
    slo.tenants[0].sloCycles += 1;
    ServingConfig qos = base;
    qos.tenants[0].reserved = true;
    qos.tenants[0].reservePct = 10.0;
    EXPECT_NE(hashOf(base, 10'000), hashOf(slo, 10'000));
    EXPECT_NE(hashOf(base, 10'000), hashOf(qos, 10'000));
    EXPECT_NE(hashOf(base, 10'000), hashOf(base, 20'000));
    EXPECT_EQ(hashOf(base, 10'000), hashOf(twoTenantConfig(), 10'000));
}

// --- The open-loop generator --------------------------------------------

/** Drive a generator like a core: idle to notBefore, charge a fixed
 *  service time per access, and retire end-of-request accesses. */
struct DriveRecord
{
    std::vector<Access> accesses;
    Cycles now = 0;
};

DriveRecord
drive(AccessGenerator& gen, std::size_t max_accesses,
      Cycles service = 200)
{
    DriveRecord rec;
    Access a;
    while (rec.accesses.size() < max_accesses && gen.next(a, rec.now)) {
        rec.now = std::max(rec.now, a.notBefore) + service;
        rec.accesses.push_back(a);
        if (a.endOfRequest) {
            gen.onRetire(a, rec.now);
        }
    }
    return rec;
}

TEST(ServingGenerator, ArrivalsConfinedToChurnWindow)
{
    ServingConfig cfg = twoTenantConfig();
    cfg.tenants[1].arriveEpoch = 3;
    cfg.tenants[1].departEpoch = 6; // active cycles [30k, 60k)
    ServingWorkload w(cfg, 10'000);
    w.prepare(tinyParams());

    auto gen = w.makeGenerator(0);
    const DriveRecord rec = drive(*gen, 1 << 20);

    // Requests are delimited by endOfRequest; the first access of each
    // carries the arrival cycle in notBefore.
    std::size_t linRequests = 0;
    bool first = true;
    for (const Access& a : rec.accesses) {
        if (first && w.streamTenant(a.sid) == 1) {
            ++linRequests;
            EXPECT_GE(a.notBefore, 30'000u);
            EXPECT_LT(a.notBefore, 60'000u);
        }
        first = a.endOfRequest;
    }
    // fixed @5000 from 30k: arrivals at 35k..55k.
    EXPECT_EQ(linRequests, 5u);

    const auto* sg = dynamic_cast<const ServingGenerator*>(gen.get());
    ASSERT_NE(sg, nullptr);
    EXPECT_EQ(sg->tenantStats(1).arrivals, 5u);
    EXPECT_EQ(sg->tenantStats(1).started, 5u);
    EXPECT_EQ(sg->tenantStats(1).retired, 5u);
    EXPECT_EQ(sg->tenantStats(1).latency.count(), 5u);
}

TEST(ServingGenerator, ReservedRequestsAreServedFirstUnderBacklog)
{
    ServingConfig cfg = twoTenantConfig();
    cfg.tenants[0].reserved = true; // same fixed arrivals, tenant 0 wins
    ServingWorkload w(cfg, 10'000);
    w.prepare(tinyParams());

    auto gen = w.makeGenerator(0);
    // A huge first service time builds a backlog of both classes; every
    // reserved request must then be served before any best-effort one
    // that arrived no later.
    Access a;
    ASSERT_TRUE(gen->next(a, 0));
    const Cycles now = 95'000; // everything has arrived
    std::vector<std::uint32_t> order;
    bool first = false;
    while (gen->next(a, now)) {
        // Only requests that had arrived by `now` compete for priority;
        // the tail past the backlog is served in plain arrival order.
        if (first && a.notBefore <= now) {
            order.push_back(w.streamTenant(a.sid));
        }
        first = a.endOfRequest;
        if (a.endOfRequest) {
            gen->onRetire(a, now);
        }
    }
    ASSERT_GT(order.size(), 10u);
    const auto firstBestEffort =
        std::find(order.begin(), order.end(), 1u);
    // All reserved (tenant 0) requests drain before the first
    // best-effort one.
    EXPECT_EQ(std::count(firstBestEffort, order.end(), 0u), 0);
}

TEST(ServingGenerator, SloViolationsCountRetiredOverTarget)
{
    ServingConfig cfg = twoTenantConfig();
    cfg.tenants.resize(1);
    cfg.tenants[0].sloCycles = 1000;
    ServingWorkload w(cfg, 10'000);
    w.prepare(tinyParams());

    auto gen = w.makeGenerator(0);
    auto* sg = dynamic_cast<ServingGenerator*>(gen.get());
    ASSERT_NE(sg, nullptr);

    // First request: retire exactly at the SLO -- not a violation.
    Access a;
    Cycles arrival = 0;
    do {
        ASSERT_TRUE(gen->next(a, 0));
        if (a.notBefore != 0) {
            arrival = a.notBefore;
        }
    } while (!a.endOfRequest);
    gen->onRetire(a, arrival + 1000);
    EXPECT_EQ(sg->tenantStats(0).sloViolations, 0u);

    // Second request: one cycle over -- a violation.
    do {
        ASSERT_TRUE(gen->next(a, arrival + 1000));
        if (a.notBefore != 0) {
            arrival = a.notBefore;
        }
    } while (!a.endOfRequest);
    gen->onRetire(a, arrival + 1001);
    EXPECT_EQ(sg->tenantStats(0).sloViolations, 1u);
    EXPECT_EQ(sg->tenantStats(0).retired, 2u);
}

TEST(ServingGenerator, CheckpointRoundTripIsByteIdentical)
{
    ServingConfig cfg = twoTenantConfig();
    cfg.tenants[0].arrival = "poisson";
    cfg.tenants[1].arrival = "bursty";
    ServingWorkload w(cfg, 10'000);
    w.prepare(tinyParams());

    auto gen = w.makeGenerator(2);
    drive(*gen, 300); // mid-run: queues, in-flight and stats populated

    ckpt::Writer snap;
    gen->serializeExtra(snap);

    auto resumed = w.makeGenerator(2);
    ckpt::Reader r(snap.bytes());
    resumed->deserializeExtra(r);

    // Both must emit identical traffic from here on and then serialize
    // to identical bytes.
    Access a;
    Access b;
    Cycles now = 300 * 200;
    for (int i = 0; i < 500; ++i) {
        const bool okA = gen->next(a, now);
        const bool okB = resumed->next(b, now);
        ASSERT_EQ(okA, okB) << i;
        if (!okA) {
            break;
        }
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.sid, b.sid) << i;
        EXPECT_EQ(a.notBefore, b.notBefore) << i;
        EXPECT_EQ(a.endOfRequest, b.endOfRequest) << i;
        now += 150;
        if (a.endOfRequest) {
            gen->onRetire(a, now);
            resumed->onRetire(b, now);
        }
    }
    ckpt::Writer wa;
    ckpt::Writer wb;
    gen->serializeExtra(wa);
    resumed->serializeExtra(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

// --- Full-system serving runs -------------------------------------------

SystemConfig
tinySystem(std::uint32_t threads)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units, 2 shards
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000;
    cfg.numThreads = threads;
    cfg.finalize();
    return cfg;
}

ServingConfig
mixedTenants()
{
    ServingConfig cfg;
    cfg.horizonCycles = 150'000;
    cfg.tenants.push_back(tenant("emb", "recsys", 8000.0));
    cfg.tenants[0].reserved = true;
    cfg.tenants[0].reservePct = 25.0;
    cfg.tenants[0].sloCycles = 60'000;
    cfg.tenants.push_back(tenant("graph", "pr", 10'000.0));
    cfg.tenants[1].arrival = "bursty";
    cfg.tenants.push_back(tenant("lin", "mv", 12'000.0));
    cfg.tenants[2].arriveEpoch = 1;
    cfg.tenants[2].departEpoch = 5;
    return cfg;
}

/** Bit-identity over every deterministic reported quantity, including
 *  the per-tenant serving stats. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    const auto isWallClock = [](const std::string& name) {
        return name.size() >= 6
            && name.compare(name.size() - 6, 6, "Micros") == 0;
    };
    for (const auto& [name, value] : a.stats.raw()) {
        EXPECT_TRUE(b.stats.has(name)) << "missing stat " << name;
        if (!isWallClock(name)) {
            EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << "stat " << name;
        }
    }
    EXPECT_EQ(a.stats.raw().size(), b.stats.raw().size());
}

RunResult
runServing(const ServingConfig& serving, std::uint32_t threads)
{
    SystemConfig cfg = tinySystem(threads);
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    return sys.run(w);
}

TEST(ServingSystem, DrainedRunConservesRequestCounts)
{
    const RunResult res = runServing(mixedTenants(), 1);
    ASSERT_TRUE(res.stats.has("serving.tenants"));
    EXPECT_DOUBLE_EQ(res.stats.get("serving.tenants"), 3.0);
    for (const char* name : {"emb", "graph", "lin"}) {
        const std::string base = std::string("tenant.") + name;
        const double arrivals = res.stats.get(base + ".arrivals");
        EXPECT_GT(arrivals, 0.0) << name;
        // A run ends only when every generator drains, so every drawn
        // arrival was started and retired.
        EXPECT_DOUBLE_EQ(res.stats.get(base + ".started"), arrivals)
            << name;
        EXPECT_DOUBLE_EQ(res.stats.get(base + ".retired"), arrivals)
            << name;
        const double attainment = res.stats.get(base + ".sloAttainment");
        EXPECT_GE(attainment, 0.0) << name;
        EXPECT_LE(attainment, 1.0) << name;
        EXPECT_GT(res.stats.get(base + ".latencyP99"), 0.0) << name;
        EXPECT_GE(res.stats.get(base + ".latencyP99"),
                  res.stats.get(base + ".latencyP50"))
            << name;
    }
    EXPECT_DOUBLE_EQ(res.stats.get("tenant.emb.reserved"), 1.0);
    EXPECT_DOUBLE_EQ(res.stats.get("tenant.graph.reserved"), 0.0);
}

TEST(ServingSystem, ThreadCountInvariance)
{
    const RunResult a = runServing(mixedTenants(), 1);
    const RunResult b = runServing(mixedTenants(), 8);
    expectIdentical(a, b);
}

TEST(ServingSystem, ResumeIsBitIdentical)
{
    const ServingConfig serving = mixedTenants();
    SystemConfig cfg = tinySystem(1);
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    NdpSystem golden(cfg, PolicyKind::NdpExt);
    const RunResult want = golden.run(w);

    const std::string prefix = ::testing::TempDir() + "serving_resume";
    NdpSystem emitter(cfg, PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    const RunResult emitted = emitter.run(w);
    expectIdentical(want, emitted);

    std::string newest;
    std::string error;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, &h, &error))
        << error;
    ASSERT_GE(h.epoch, 3u) << "run too short to exercise resume";

    for (const std::uint64_t epoch :
         {std::uint64_t{1}, h.epoch / 2, h.epoch}) {
        SystemConfig rcfg = tinySystem(8);
        rcfg.serving = serving;
        NdpSystem resumed(rcfg, PolicyKind::NdpExt);
        const std::string image =
            prefix + "." + std::to_string(epoch) + ".ckpt";
        ASSERT_TRUE(resumed.setResume(image, w, &error)) << error;
        const RunResult got = resumed.run(w);
        expectIdentical(want, got);
    }
}

TEST(ServingSystem, ResumeRejectsDifferentServingConfig)
{
    const ServingConfig serving = mixedTenants();
    SystemConfig cfg = tinySystem(1);
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    const std::string prefix =
        ::testing::TempDir() + "serving_resume_cfg";
    NdpSystem emitter(cfg, PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(w);

    std::string newest;
    std::string error;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, nullptr, &error))
        << error;

    // Same tenants, different SLO: the serving config is part of the
    // config hash, so the image must be rejected.
    ServingConfig other = mixedTenants();
    other.tenants[0].sloCycles += 1;
    ServingWorkload w2(other, cfg.runtime.epochCycles);
    w2.prepare(tinyParams());
    NdpSystem resumed(cfg, PolicyKind::NdpExt);
    EXPECT_FALSE(resumed.setResume(newest, w2, &error));
    EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST(ServingSystem, ReservedBeatsBestEffortUnderOverload)
{
    // Two tenants with the same workload, arrivals and SLO; only the
    // QoS class differs. Under overload the reserved tenant's p99
    // attainment must be strictly better (priority scheduling plus the
    // Algorithm 1 capacity carve-out).
    ServingConfig cfg;
    cfg.horizonCycles = 150'000;
    cfg.tenants.push_back(tenant("res", "recsys", 2500.0));
    cfg.tenants[0].reserved = true;
    cfg.tenants[0].reservePct = 30.0;
    cfg.tenants[0].sloCycles = 50'000;
    cfg.tenants.push_back(tenant("be", "recsys", 2500.0));
    cfg.tenants[1].sloCycles = 50'000;

    const RunResult res = runServing(cfg, 1);
    const double resAttain = res.stats.get("tenant.res.sloAttainment");
    const double beAttain = res.stats.get("tenant.be.sloAttainment");
    EXPECT_GT(resAttain, beAttain);
    EXPECT_LE(res.stats.get("tenant.res.latencyP99"),
              res.stats.get("tenant.be.latencyP99"));
}

} // namespace
} // namespace ndpext
