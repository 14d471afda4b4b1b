/**
 * Telemetry subsystem tests: metric registry semantics, per-packet
 * LatencyBreakdown accumulation, the observer-only determinism contract,
 * and the schema of the emitted files (DESIGN.md §6).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/host_llc.h"
#include "common/rng.h"
#include "serving/serving_workload.h"
#include "sim/packet.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "telemetry/tiny_json.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- MetricRegistry -----------------------------------------------------

TEST(MetricRegistry, DuplicateNamesSumAcrossSources)
{
    std::ostringstream os;
    MetricRegistry reg(os);
    double a = 3.0;
    double b = 4.0;
    const Counters list = {
        {"x.count", [&a] { return a; }},
        {"x.count", [&b] { return b; }},
        {"x.rate", [] { return 0.5; }},
    };
    reg.registerCounters(list);
    reg.sample(0, 100);
    a = 10.0;
    reg.sample(1, 200);

    const auto lines = parsedLines(os.str());
    ASSERT_EQ(lines.size(), 2u);
    const json::Value* first = lines[0]->get("metrics");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->object.size(), 2u);
    EXPECT_DOUBLE_EQ(first->num("x.count"), 7.0);
    EXPECT_DOUBLE_EQ(first->num("x.rate"), 0.5);
    const json::Value* second = lines[1]->get("metrics");
    ASSERT_NE(second, nullptr);
    EXPECT_DOUBLE_EQ(second->num("x.count"), 14.0);
    EXPECT_EQ(second->get("nonexistent"), nullptr);
}

TEST(MetricRegistry, JsonlRoundTripsThroughParser)
{
    Histogram hist(100.0, 10);
    hist.add(5.0);
    hist.add(50.0);
    std::ostringstream os;
    MetricRegistry reg(os);
    reg.registerCounter("cache.hits", [] { return 42.0; });
    reg.registerHistogram("lat", &hist);
    reg.sample(0, 1000);
    reg.sample(1, 2000);

    const auto lines = parsedLines(os.str());
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

/** The sum of every counter `component` declares as `name`. */
template <typename Component>
double
counterValue(const Component& component, const std::string& name)
{
    Counters list;
    component.counters(list, "x");
    double sum = 0.0;
    for (const Counter& c : list) {
        if (c.name == "x." + name) {
            sum += c.read();
        }
    }
    return sum;
}

/**
 * Sends requests to one memory sink and checks that each one accounts
 * for every cycle of its service: the stage buckets sum to exactly
 * (ready - issue), and the packet counts as one request.
 */
template <typename Sink>
struct StageCheck
{
    Sink& sink;
    std::uint64_t verified = 0;

    /** Service `pkt`; returns its latency. */
    Cycles
    operator()(Packet pkt)
    {
        const Cycles issue = pkt.ready;
        sink.recvAtomic(pkt);
        EXPECT_EQ(pkt.ready - issue, pkt.bd.total())
            << "unaccounted cycles on packet " << verified;
        EXPECT_EQ(pkt.bd.requests, 1u);
        ++verified;
        return pkt.ready - issue;
    }

    /** A dirty-line writeback is not a request: the count stays. */
    void
    writeback(Addr line_addr, CoreId core, Cycles now)
    {
        const std::uint64_t before = sink.breakdown().requests;
        Packet pkt = Packet::writeback(line_addr, core, now);
        sink.recvAtomic(pkt);
        EXPECT_EQ(sink.breakdown().requests, before)
            << "writeback counted as a request";
    }
};

/** Stream mode: indirect misses and hits, an affine stream's tag-array
 *  miss and hit, an unallocated stream and a non-stream bypass. */
void
streamModePaths()
{
    CacheRig rig;
    const StreamId sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    const StreamId affine = rig.addStream(StreamType::Affine, 64_KiB, 8, true);
    rig.allocateEverything();
    // Configured after the allocation pass, so this stream stays
    // unallocated and its accesses go to extended memory.
    const StreamId uncached =
        rig.addStream(StreamType::Indirect, 64_KiB, 8, true);
    StageCheck<StreamCacheController> check{*rig.cache};

    for (ElemId e = 0; e < 64; ++e) {
        check(Packet::request(rig.accessOf(sid, e), /*core=*/e % 8,
                              /*now=*/e * 10));
    }
    // Re-touch the first elements: now hits, still fully accounted.
    const std::uint64_t hits = rig.cache->cacheHits();
    for (ElemId e = 0; e < 8; ++e) {
        check(Packet::request(rig.accessOf(sid, e), 0, 10'000 + e * 10));
    }
    EXPECT_EQ(rig.cache->cacheHits(), hits + 8);
    // Affine: the first element misses in the SRAM tag array and
    // fetches its 1 kB block, which the next element then hits.
    const std::uint64_t misses = rig.cache->cacheMisses();
    check(Packet::request(rig.accessOf(affine, 0), 3, 15'000));
    EXPECT_EQ(rig.cache->cacheMisses(), misses + 1);
    check(Packet::request(rig.accessOf(affine, 1), 3, 18'000));
    EXPECT_EQ(rig.cache->cacheHits(), hits + 9);
    EXPECT_GT(check(Packet::request(rig.accessOf(uncached, 3), 1, 20'000)),
              0u);
    Access bypass;
    bypass.sid = kNoStream;
    bypass.addr = 0x40;
    EXPECT_GT(check(Packet::request(bypass, 2, 30'000)), 0u);
    check.writeback(rig.table.stream(sid).addrOf(0), 1, 40'000);
    EXPECT_EQ(check.verified, 76u);
}

/** Cacheline mode: metadata-cache misses (one homed on a remote unit)
 *  and hits, line misses and hits, and a miss that evicts a dirty line. */
void
cachelineModePaths()
{
    CacheRig rig(/*cacheline_mode=*/true);
    const StreamId sid = rig.addStream(StreamType::Indirect, 64_KiB, 8, false);
    rig.allocateEverything();
    StageCheck<StreamCacheController> check{*rig.cache};

    // Metadata is spread over the units by a hash of its 512 B block;
    // send from the unit after the block's home, so its miss is remote.
    const Access first = rig.accessOf(sid, 0);
    const std::uint32_t units = rig.cache->numUnits();
    const CoreId core = static_cast<CoreId>(
        (mix64(first.addr / rig.params.metadataGranuleBytes) + 1) % units);
    check(Packet::request(first, core, 0));
    // The next line shares the metadata block: metadata hit, line miss.
    check(Packet::request(rig.accessOf(sid, 8), core, 10'000));
    // The first line again: metadata hit, line hit.
    check(Packet::request(first, core, 20'000));
    EXPECT_DOUBLE_EQ(rig.cache->metadataHitRate(), 2.0 / 3.0);
    EXPECT_EQ(rig.cache->cacheMisses(), 2u);
    EXPECT_EQ(rig.cache->cacheHits(), 1u);

    // Write lines until a miss evicts a dirty one (cacheline-mode tag
    // stores are direct-mapped, so hashed lines soon collide).
    const auto victims = [&] {
        return counterValue(*rig.cache, "writebacks");
    };
    const ElemId lines = rig.table.stream(sid).numElems() / 8;
    Cycles t = 30'000;
    for (ElemId line = 0; line < lines && victims() == 0.0; ++line) {
        t += 10'000;
        check(Packet::request(rig.accessOf(sid, line * 8, /*write=*/true),
                              core, t));
    }
    EXPECT_EQ(victims(), 1.0) << "no miss evicted a dirty line";
    check.writeback(first.addr, core, t);
}

/** Host: an LLC miss, hits, and a miss that evicts a dirty line. */
void
hostPaths()
{
    HostParams params;
    params.numCores = 4;
    params.meshX = 2;
    params.meshY = 2;
    params.llcBankBytes = 4_KiB; // 256 lines in all: victims come early
    HostLlcController llc(params);
    StageCheck<HostLlcController> check{llc};

    Access a;
    a.addr = 0x4000;
    check(Packet::request(a, 0, 0));
    // Hits from every core: most cross the mesh to the line's bank.
    for (CoreId c = 0; c < params.numCores; ++c) {
        check(Packet::request(a, c, 1'000 * (c + 1)));
    }
    EXPECT_EQ(llc.llcMisses(), 1u);
    EXPECT_EQ(llc.llcHits(), 4u);

    // Write new lines until a miss evicts a dirty one: that miss makes
    // two DRAM accesses, the victim's write and its own fill.
    const auto dramAccesses = [&] {
        return counterValue(llc, "dram.rowHits")
            + counterValue(llc, "dram.rowMisses");
    };
    bool dirty_victim = false;
    a.isWrite = true;
    for (std::uint64_t i = 1; i <= 4096 && !dirty_victim; ++i) {
        a.addr = 0x4000 + i * kCachelineBytes;
        const double before = dramAccesses();
        check(Packet::request(a, static_cast<CoreId>(i % 4), i * 1'000));
        dirty_victim = dramAccesses() - before == 2.0;
    }
    EXPECT_TRUE(dirty_victim) << "no miss evicted a dirty line";
    check.writeback(0x4000, 0, 10'000'000);
}

/** One memory sink and the paths a request can take through it. */
struct SinkCase
{
    const char* name;
    void (*paths)();
};

void
PrintTo(const SinkCase& c, std::ostream* os)
{
    *os << c.name;
}

class PacketBreakdown : public ::testing::TestWithParam<SinkCase>
{
};

/**
 * Every request path accounts for every cycle: whichever sink serves a
 * packet and whichever way it takes, the breakdown's stage buckets sum
 * to exactly (ready - issue).
 */
TEST_P(PacketBreakdown, StageSumsEqualTotalLatency)
{
    GetParam().paths();
}

INSTANTIATE_TEST_SUITE_P(
    Sinks, PacketBreakdown,
    ::testing::Values(SinkCase{"stream_mode", streamModePaths},
                      SinkCase{"cacheline_mode", cachelineModePaths},
                      SinkCase{"host", hostPaths}),
    [](const ::testing::TestParamInfo<SinkCase>& info) {
        return std::string(info.param.name);
    });

// --- System-level telemetry ---------------------------------------------

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
 * must not change the RunResult.
 */
TEST(Telemetry, ObserverOnlyAcrossSampling)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());

    NdpSystem plain(tinyConfig(), PolicyKind::NdpExt);
    const RunResult base = plain.run(*w);

    for (const std::uint64_t sampleEvery : {1u, 64u}) {
        auto tel = makeTelemetry("", sampleEvery);
        NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        const RunResult r = sys.run(*w);
        EXPECT_EQ(r.cycles, base.cycles) << "sampleEvery=" << sampleEvery;
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

/**
 * --stats-json names that are not counters, so telemetry never carries
 * them: the per-core coreN.* rows and the run-level fields.
 */
bool
isRunLevelStat(const std::string& name)
{
    static const std::regex kRunLevel(
        "core[0-9]+\\..*|cycles|engine\\..*|.*Micros|degraded\\.cycles"
        "|serving\\.tenants"
        "|tenant\\..*\\.(latency(Mean|P50|P99|Max)|sloAttainment)");
    return std::regex_match(name, kRunLevel);
}

/**
 * Epoch series, packet samples, and decisions are all populated, and
 * the final epoch sample and --stats-json read one counter list: every
 * sampled metric except telemetry's own packet count equals the
 * --stats-json value of the same name, and every --stats-json name is
 * sampled or run-level. Covers a plain, a faulty and a serving run, so
 * the fault.* and tenant.* counters are checked too.
 */
TEST(Telemetry, CollectsMetricsSamplesAndDecisions)
{
    SystemConfig plain = tinyConfig();
    plain.runtime.epochCycles = 50'000; // several epochs within the run
    plain.finalize();
    auto pr = makeWorkload("pr");
    pr->prepare(tinyParams());

    SystemConfig faulty = plain;
    faulty.faults.seed = 11;
    faulty.faults.cxlTransientProb = 1e-2;
    faulty.faults.cxlPoisonProb = 1e-3;
    faulty.faults.dramBitProb = 1e-2;
    faulty.faults.unitFailures = {{2, 100'000}};

    SystemConfig serving = plain;
    for (const char* spec : {"name=emb,workload=recsys,period=4000",
                             "name=lin,workload=mv,period=5000"}) {
        TenantSpec t;
        std::string error;
        ASSERT_TRUE(parseTenantSpec(spec, &t, &error)) << error;
        serving.serving.tenants.push_back(t);
    }
    serving.serving.horizonCycles = 100'000;
    ServingWorkload tenants(serving.serving, serving.runtime.epochCycles);
    tenants.prepare(tinyParams());

    struct Input
    {
        const char* label;
        const SystemConfig& cfg;
        const Workload& workload;
    };
    const Input inputs[] = {
        {"plain", plain, *pr},
        {"faulty", faulty, *pr},
        {"serving", serving, tenants},
    };
    for (const Input& in : inputs) {
        SCOPED_TRACE(in.label);
        auto tel = makeTelemetry();
        NdpSystem sys(in.cfg, PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        const RunResult res = sys.run(in.workload);

        // The final metrics line is the last epoch sample.
        const auto epochs = parsedLines(tel->pending(Telemetry::kMetrics));
        ASSERT_GE(epochs.size(), 2u);
        const json::Value* last = epochs.back()->get("metrics");
        ASSERT_NE(last, nullptr);
        std::set<std::string> sampled;
        for (const auto& [name, value] : last->object) {
            sampled.insert(name);
            if (name == "telemetry.packetSamples") {
                continue;
            }
            EXPECT_TRUE(res.stats.has(name)) << name << " not in stats";
            EXPECT_EQ(value->number, res.stats.get(name)) << name;
        }
        for (const auto& [name, value] : res.stats.raw()) {
            (void)value;
            EXPECT_TRUE(sampled.count(name) != 0 || isRunLevelStat(name))
                << name << " not in telemetry";
        }
        EXPECT_EQ(last->num("cores.accesses"),
                  static_cast<double>(res.accesses));
        EXPECT_EQ(sampled.count("fault.linkErrorsInjected"),
                  in.cfg.faults.anyFaults() ? 1u : 0u);
        EXPECT_EQ(sampled.count("tenant.emb.arrivals"),
                  in.cfg.serving.tenants.empty() ? 0u : 1u);

        // Sampled packets: each parent span's stage slices tile it
        // exactly, and every sample feeds the latency histogram.
        std::string error;
        const json::ValuePtr trace = json::parse(
            std::string(tel->pending(Telemetry::kTrace))
                + tel->trace().footer(),
            &error);
        ASSERT_NE(trace, nullptr) << error;
        std::uint64_t packets = 0;
        double span = 0.0;
        double stages = 0.0;
        for (const auto& ev : trace->get("traceEvents")->array) {
            if (ev->str("cat") != "packet") {
                continue;
            }
            if (ev->str("name").rfind("pkt", 0) == 0) {
                EXPECT_EQ(stages, span) << "packet " << packets;
                ++packets;
                span = ev->num("dur");
                stages = 0.0;
                EXPECT_GT(span, 0.0);
                EXPECT_LT(ev->num("tid"), 8.0);
            } else {
                stages += ev->num("dur");
            }
        }
        EXPECT_EQ(stages, span) << "packet " << packets;
        ASSERT_GT(packets, 0u);
        EXPECT_EQ(tel->packetLatencyHist().count(), packets);
        EXPECT_EQ(last->num("telemetry.packetSamples"),
                  static_cast<double>(packets));

        // Decision log: an initial record plus one per completed epoch.
        const auto decisions =
            parsedLines(tel->pending(Telemetry::kDecisions));
        ASSERT_GE(decisions.size(), 2u);
        EXPECT_EQ(decisions.front()->str("kind"), "initial");
        EXPECT_FALSE(decisions.front()->get("allocs")->array.empty());
        bool sawEpoch = false;
        for (const json::ValuePtr& d : decisions) {
            EXPECT_EQ(d->get("samplerAssignment")->array.size(), 8u);
            if (d->str("kind") == "epoch") {
                sawEpoch = true;
                EXPECT_GT(d->num("cycles"), 0.0);
                EXPECT_FALSE(d->get("demands")->array.empty());
            }
        }
        EXPECT_TRUE(sawEpoch);
    }
}

/** writeAll emits the three files and each parses with the schema. */
TEST(Telemetry, WriteAllEmitsParseableFiles)
{
    auto w = makeWorkload("bfs");
    w->prepare(tinyParams());
    const std::string prefix = ::testing::TempDir() + "ndpext_tel_test";
    auto tel = makeTelemetry(prefix, 8);
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
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
