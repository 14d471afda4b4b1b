/**
 * Telemetry subsystem tests: metric registry semantics, per-packet
 * LatencyBreakdown accumulation, the observer-only determinism contract,
 * and the schema of the emitted files (DESIGN.md §6).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ndp/stream_cache.h"
#include "runtime/static_config.h"
#include "sim/packet.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "telemetry/tiny_json.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- MetricRegistry -----------------------------------------------------

TEST(MetricRegistry, DuplicateNamesSumAcrossSources)
{
    MetricRegistry reg;
    double a = 3.0;
    double b = 4.0;
    reg.registerCounter("x.count", [&a] { return a; });
    reg.registerCounter("x.count", [&b] { return b; });
    reg.registerGauge("x.rate", [] { return 0.5; });
    EXPECT_EQ(reg.numMetrics(), 2u);
    reg.sample(0, 100);
    EXPECT_DOUBLE_EQ(reg.latest("x.count"), 7.0);
    EXPECT_DOUBLE_EQ(reg.latest("x.rate"), 0.5);
    a = 10.0;
    reg.sample(1, 200);
    EXPECT_DOUBLE_EQ(reg.latest("x.count"), 14.0);
    EXPECT_DOUBLE_EQ(reg.latest("nonexistent"), 0.0);
}

TEST(MetricRegistry, RingDropsOldestBeyondCapacity)
{
    MetricRegistry reg(2);
    reg.registerCounter("c", [] { return 1.0; });
    reg.sample(0, 10);
    reg.sample(1, 20);
    reg.sample(2, 30);
    EXPECT_EQ(reg.numSamples(), 2u);
    EXPECT_EQ(reg.droppedSamples(), 1u);
    EXPECT_EQ(reg.samples().front().epoch, 1u);
}

TEST(MetricRegistry, JsonlRoundTripsThroughParser)
{
    MetricRegistry reg;
    Histogram hist(100.0, 10);
    hist.add(5.0);
    hist.add(50.0);
    reg.registerCounter("cache.hits", [] { return 42.0; });
    reg.registerHistogram("lat", &hist);
    reg.sample(0, 1000);
    reg.sample(1, 2000);

    std::ostringstream os;
    reg.writeJsonl(os);
    std::vector<json::ValuePtr> lines;
    std::string error;
    ASSERT_TRUE(json::parseLines(os.str(), lines, &error)) << error;
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_DOUBLE_EQ(lines[1]->num("epoch"), 1.0);
    EXPECT_DOUBLE_EQ(lines[1]->num("cycles"), 2000.0);
    const json::Value* metrics = lines[0]->get("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->num("cache.hits"), 42.0);
    const json::Value* hists = lines[0]->get("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value* lat = hists->get("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_DOUBLE_EQ(lat->num("count"), 2.0);
}

// --- LatencyBreakdown end-to-end accumulation ---------------------------

/** Minimal controller rig (same shape as test_stream_cache). */
struct Rig
{
    MeshTopology topo{2, 1, 2, 2}; // 8 units
    NocParams nocParams;
    NocModel noc{topo, nocParams};
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
            params, table, noc, ext, DramTimingParams::hbm3Unit(), 256_KiB,
            2000);
    }

    StreamId
    addStream(std::uint64_t bytes)
    {
        auto cfg = StreamConfig::dense(
            "s" + std::to_string(table.numStreams()), StreamType::Indirect,
            0x100000 + table.numStreams() * 0x1000000, bytes, 8);
        cfg.readOnly = true;
        return table.configureStream(cfg);
    }

    void
    allocateEverything()
    {
        cache->applyConfiguration(makeStaticEqualConfig(
            table, cache->numUnits(), cache->rowsPerUnit(),
            cache->rowBytes(), params.affineCapBytesPerUnit));
    }
};

/**
 * The breakdown must account for every cycle of a packet's service: the
 * stage buckets sum to exactly (ready - issue) on every path through the
 * datapath (hit, miss, uncached stream, non-stream bypass, write).
 */
TEST(LatencyBreakdown, PacketStageSumsEqualTotalLatency)
{
    Rig rig;
    const StreamId sid = rig.addStream(64_KiB);
    rig.cache->applyConfiguration(makeStaticEqualConfig(
        rig.table, rig.cache->numUnits(), rig.cache->rowsPerUnit(),
        rig.cache->rowBytes(), rig.params.affineCapBytesPerUnit));
    // Configured after the allocation pass, so this stream stays
    // unallocated and its accesses go to extended memory.
    const StreamId uncached = rig.addStream(64_KiB);

    std::uint64_t verified = 0;
    auto verify = [&](Packet pkt) {
        const Cycles issue = pkt.ready;
        rig.cache->recvAtomic(pkt);
        EXPECT_EQ(pkt.ready - issue, pkt.bd.total())
            << "unaccounted cycles on packet " << verified;
        EXPECT_EQ(pkt.bd.requests, 1u);
        ++verified;
        return pkt.ready - issue;
    };

    const StreamConfig& cfg = rig.table.stream(sid);
    for (ElemId e = 0; e < 64; ++e) {
        Access a;
        a.sid = sid;
        a.elem = e;
        a.addr = cfg.addrOf(e);
        verify(Packet::request(a, /*core=*/e % 8, /*now=*/e * 10));
    }
    // Re-touch the first elements: now hits, still fully accounted.
    for (ElemId e = 0; e < 8; ++e) {
        Access a;
        a.sid = sid;
        a.elem = e;
        a.addr = cfg.addrOf(e);
        verify(Packet::request(a, 0, 10'000 + e * 10));
    }
    // Uncached stream -> extended memory.
    const StreamConfig& ucfg = rig.table.stream(uncached);
    Access ua;
    ua.sid = uncached;
    ua.elem = 3;
    ua.addr = ucfg.addrOf(3);
    const Cycles uncached_lat = verify(Packet::request(ua, 1, 20'000));
    EXPECT_GT(uncached_lat, 0u);
    // Non-stream bypass.
    Access ba;
    ba.sid = kNoStream;
    ba.addr = 0x40;
    EXPECT_GT(verify(Packet::request(ba, 2, 30'000)), 0u);
    EXPECT_GE(verified, 74u);
}

// --- System-level telemetry ---------------------------------------------

SystemConfig
tinyConfig(std::uint32_t threads = 1)
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 200'000;
    cfg.numThreads = threads;
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

std::unique_ptr<Telemetry>
makeTelemetry(const std::string& prefix = "",
              std::uint64_t sample_every = 1)
{
    TelemetryConfig tc;
    tc.outPrefix = prefix;
    tc.packetSampleEvery = sample_every;
    return std::make_unique<Telemetry>(tc);
}

/**
 * The observer-only contract: attaching telemetry (at any sampling rate)
 * and changing --threads must not change the RunResult.
 */
TEST(Telemetry, ObserverOnlyAcrossThreadsAndSampling)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());

    NdpSystem plain(tinyConfig(1), PolicyKind::NdpExt);
    const RunResult base = plain.run(*w);

    struct Variant
    {
        std::uint32_t threads;
        std::uint64_t sampleEvery;
    };
    for (const Variant v : {Variant{1, 1}, Variant{2, 1}, Variant{2, 64}}) {
        auto tel = makeTelemetry("", v.sampleEvery);
        NdpSystem sys(tinyConfig(v.threads), PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        const RunResult r = sys.run(*w);
        EXPECT_EQ(r.cycles, base.cycles) << "threads=" << v.threads;
        EXPECT_EQ(r.accesses, base.accesses);
        EXPECT_EQ(r.l1Hits, base.l1Hits);
        EXPECT_EQ(r.bd.requests, base.bd.requests);
        EXPECT_EQ(r.bd.metadata, base.bd.metadata);
        EXPECT_EQ(r.bd.icnIntra, base.bd.icnIntra);
        EXPECT_EQ(r.bd.icnInter, base.bd.icnInter);
        EXPECT_EQ(r.bd.dramCache, base.bd.dramCache);
        EXPECT_EQ(r.bd.extMem, base.bd.extMem);
        EXPECT_DOUBLE_EQ(r.missRate, base.missRate);
        EXPECT_DOUBLE_EQ(r.energy.totalNj(), base.energy.totalNj());
        EXPECT_EQ(r.reconfigurations, base.reconfigurations);
    }
}

/** Epoch series, packet samples, and decisions are all populated. */
TEST(Telemetry, CollectsMetricsSamplesAndDecisions)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    auto tel = makeTelemetry();
    SystemConfig cfg = tinyConfig(2);
    cfg.runtime.epochCycles = 50'000; // several epochs within the run
    cfg.finalize();
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.attachTelemetry(tel.get());
    const RunResult res = sys.run(*w);

    // The final epoch snapshot agrees with the run's own statistics.
    EXPECT_GE(tel->metrics().numSamples(), 2u);
    EXPECT_DOUBLE_EQ(tel->metrics().latest("cache.hits"),
                     res.stats.get("cache.hits"));
    EXPECT_DOUBLE_EQ(tel->metrics().latest("cache.misses"),
                     res.stats.get("cache.misses"));
    EXPECT_DOUBLE_EQ(tel->metrics().latest("cores.accesses"),
                     static_cast<double>(res.accesses));

    // Sampled packets: every stage split is internally consistent and
    // feeds the latency histogram.
    ASSERT_FALSE(tel->drainedSamples().empty());
    for (const PacketSample& s : tel->drainedSamples()) {
        EXPECT_EQ(s.total(),
                  s.metadata + s.icnIntra + s.icnInter + s.dramCache
                      + s.extMem);
        EXPECT_GT(s.total(), 0u);
        EXPECT_LT(s.core, 8u);
    }
    EXPECT_EQ(tel->packetLatencyHist().count(),
              tel->drainedSamples().size());

    // Decision log: an initial record plus one per completed epoch.
    const auto& decisions = tel->decisions().records();
    ASSERT_GE(decisions.size(), 2u);
    EXPECT_EQ(decisions.front().kind, "initial");
    EXPECT_FALSE(decisions.front().allocs.empty());
    bool sawEpoch = false;
    for (const DecisionRecord& d : decisions) {
        EXPECT_EQ(d.samplerAssignment.size(), 8u);
        if (d.kind == "epoch") {
            sawEpoch = true;
            EXPECT_GT(d.cycles, 0u);
            EXPECT_FALSE(d.demands.empty());
        }
    }
    EXPECT_TRUE(sawEpoch);
}

/** writeAll emits the three files and each parses with the schema. */
TEST(Telemetry, WriteAllEmitsParseableFiles)
{
    auto w = makeWorkload("bfs");
    w->prepare(tinyParams());
    const std::string prefix = ::testing::TempDir() + "ndpext_tel_test";
    auto tel = makeTelemetry(prefix, 8);
    NdpSystem sys(tinyConfig(1), PolicyKind::NdpExt);
    sys.attachTelemetry(tel.get());
    (void)sys.run(*w);
    std::string error;
    ASSERT_TRUE(tel->writeAll(&error)) << error;

    auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };

    std::vector<json::ValuePtr> lines;
    ASSERT_TRUE(json::parseLines(slurp(prefix + ".metrics.jsonl"), lines,
                                 &error))
        << error;
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.back()->get("metrics"), nullptr);

    lines.clear();
    ASSERT_TRUE(json::parseLines(slurp(prefix + ".decisions.jsonl"), lines,
                                 &error))
        << error;
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.front()->str("kind"), "initial");
    ASSERT_NE(lines.front()->get("allocs"), nullptr);
    EXPECT_TRUE(lines.front()->get("allocs")->isArray());

    const json::ValuePtr trace =
        json::parse(slurp(prefix + ".trace.json"), &error);
    ASSERT_NE(trace, nullptr) << error;
    const json::Value* events = trace->get("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->array.empty());
    bool sawEpochSpan = false;
    bool sawPacket = false;
    for (const auto& ev : events->array) {
        if (ev->str("ph") == "X" && ev->str("cat") == "epoch") {
            sawEpochSpan = true;
        }
        if (ev->str("cat") == "packet") {
            sawPacket = true;
        }
    }
    EXPECT_TRUE(sawEpochSpan);
    EXPECT_TRUE(sawPacket);
}

/** An empty output prefix collects in memory and writes nothing. */
TEST(Telemetry, EmptyPrefixWriteAllIsNoOp)
{
    auto tel = makeTelemetry();
    tel->metrics().registerCounter("c", [] { return 1.0; });
    tel->sampleEpoch(0, 100);
    std::string error;
    EXPECT_TRUE(tel->writeAll(&error));
    EXPECT_TRUE(error.empty());
}

} // namespace
} // namespace ndpext
