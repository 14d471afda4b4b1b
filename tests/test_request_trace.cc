/**
 * End-to-end request tracing (DESIGN.md §6): the per-stage identity
 * (stage cycles sum exactly to request latency), the bounded
 * deterministic exemplar reservoirs, the observer-only contract
 * (tracing on/off never changes a RunResult; repeat runs give the same
 * exemplar stream), flow-event rendering and tenant-churn robustness in
 * the TraceWriter, byte-identity of every telemetry output through
 * mid-run .part flushes and checkpoint kill/resume, the
 * flat-checkpoint-image guarantee, and the heartbeat file contract.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serving/serving_config.h"
#include "serving/serving_workload.h"
#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "telemetry/request_trace.h"
#include "telemetry/telemetry.h"
#include "telemetry/tiny_json.h"
#include "telemetry/trace_writer.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- RequestTraceCollector unit tests -----------------------------------

RequestTraceRecord
record(std::uint32_t tenant, CoreId core, Cycles arrival, Cycles latency)
{
    RequestTraceRecord r;
    r.tenant = tenant;
    r.core = core;
    r.arrival = arrival;
    r.start = arrival + latency / 4;
    r.done = arrival + latency;
    r.queueWait = r.start - r.arrival;
    r.compute = r.done - r.start;
    return r;
}

std::vector<RequestTraceCollector::TenantMeta>
twoTenantMetas()
{
    return {{"emb", true, 50'000}, {"lin", false, 80'000}};
}

/** The sum of an exemplar line's nine stage cycles. */
double
stageSum(const json::Value& line)
{
    double sum = 0.0;
    for (const auto& [stage, cycles] : line.get("stages")->object) {
        sum += cycles->number;
    }
    return sum;
}

TEST(RequestTraceCollector, ReservoirIsBoundedAndKeepsTheSlowest)
{
    RequestTraceCollector::Params p;
    p.slowK = 4;
    p.uniformK = 4;
    std::ostringstream os;
    RequestTraceCollector col(p, os);
    col.init(2, twoTenantMetas(), nullptr);
    ASSERT_TRUE(col.active());

    // 100 tenant-0 requests with distinct latencies, interleaved across
    // both cores; far more than the reservoir can hold.
    for (std::uint32_t i = 0; i < 100; ++i) {
        col.buffer(i % 2)->push(
            record(0, i % 2, 1000 + i * 10, 500 + i * 7));
    }
    col.drain();
    col.finalizeEpoch(0);

    const auto kept = parsedLines(os.str());
    ASSERT_FALSE(kept.empty());
    EXPECT_LE(kept.size(), p.slowK + p.uniformK);
    std::uint64_t slow = 0;
    for (const json::ValuePtr& e : kept) {
        EXPECT_EQ(e->num("epoch"), 0.0);
        EXPECT_EQ(e->str("tenant"), "emb");
        EXPECT_EQ(stageSum(*e), e->num("latency"));
        if (e->str("kind") == "slow") {
            ++slow;
            // The slow set must be exactly the largest latencies: every
            // non-retained request (latency < 500 + 96*7) is slower
            // than none of them.
            EXPECT_GE(e->num("latency"), 500.0 + 96.0 * 7.0);
        }
    }
    EXPECT_EQ(slow, p.slowK);
}

TEST(RequestTraceCollector, IdenticalInputGivesIdenticalExemplars)
{
    RequestTraceCollector::Params p;
    p.slowK = 3;
    p.uniformK = 3;
    const auto feed = [&p] {
        std::ostringstream os;
        RequestTraceCollector col(p, os);
        col.init(2, twoTenantMetas(), nullptr);
        for (std::uint32_t i = 0; i < 64; ++i) {
            col.buffer(i % 2)->push(record(i % 2, i % 2, i * 100,
                                           300 + (i * 37) % 900));
        }
        col.drain();
        col.finalizeEpoch(0);
        for (std::uint32_t i = 0; i < 64; ++i) {
            col.buffer(0)->push(
                record(1, 0, 100'000 + i * 50, 200 + (i * 13) % 700));
        }
        col.drain();
        col.finalizeEpoch(1);
        return os.str();
    };
    const std::string a = feed();
    EXPECT_EQ(a, feed());
    EXPECT_FALSE(a.empty());

    // Every line parses and matches the published schema fields.
    std::vector<json::ValuePtr> lines;
    std::string error;
    ASSERT_TRUE(json::parseLines(a, lines, &error)) << error;
    for (const auto& line : lines) {
        EXPECT_EQ(line->num("done") - line->num("arrival"),
                  line->num("latency"));
        const json::Value* stages = line->get("stages");
        ASSERT_NE(stages, nullptr);
        double sum = 0.0;
        for (const char* k :
             {"queueWait", "compute", "l1", "metadata", "icnIntra",
              "icnInter", "dramCache", "extMem", "mshrQueue"}) {
            ASSERT_NE(stages->get(k), nullptr) << k;
            sum += stages->num(k);
        }
        EXPECT_DOUBLE_EQ(sum, line->num("latency"));
    }
}

// --- TraceWriter: flows, churn, duplicate metadata ----------------------

TEST(TraceWriter, FlowEventsRenderWithSharedIdAndBindingPoint)
{
    std::ostringstream os;
    TraceWriter tw(os);
    tw.flowStart("request", "req", TraceWriter::kPidRequests, 0, 100, 7);
    tw.flowStep("request", "req", TraceWriter::kPidRequests, 0, 150, 7);
    tw.flowEnd("request", "req", TraceWriter::kPidRequests, 0, 200, 7);
    const std::string out = os.str() + tw.footer();
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(out.find("\"bp\":\"e\""), std::string::npos);
    // All three phases carry the shared id.
    std::size_t ids = 0;
    for (std::size_t at = out.find("\"id\":7"); at != std::string::npos;
         at = out.find("\"id\":7", at + 1)) {
        ++ids;
    }
    EXPECT_EQ(ids, 3u);
}

/**
 * Tenant churn: a departed tenant's exemplar spans are emitted after
 * its window closed, and a restore-time duplicate processName for pid 4
 * must not corrupt the trace. Every flow id still pairs exactly one
 * start with one end.
 */
TEST(TraceWriter, ChurnAndDuplicatePidGroupsKeepFlowsPaired)
{
    RequestTraceCollector::Params p;
    p.slowK = 2;
    p.uniformK = 1;
    std::ostringstream os;
    TraceWriter tw(os);
    tw.processName(TraceWriter::kPidRequests, "requests"); // duplicate
    std::ostringstream exemplars;
    RequestTraceCollector col(p, exemplars);
    col.init(1, twoTenantMetas(), &tw);

    // Tenant 1 departs after epoch 0: its spans land in epoch 0 only,
    // tenant 0 keeps going; finalize both epochs.
    for (std::uint32_t i = 0; i < 8; ++i) {
        col.buffer(0)->push(record(1, 0, i * 500, 900 + i * 31));
        col.buffer(0)->push(record(0, 0, i * 500 + 7, 800 + i * 17));
    }
    col.drain();
    col.finalizeEpoch(0);
    for (std::uint32_t i = 0; i < 8; ++i) {
        col.buffer(0)->push(record(0, 0, 50'000 + i * 500, 600 + i * 23));
    }
    col.drain();
    col.finalizeEpoch(1);

    std::string error;
    const json::ValuePtr doc = json::parse(os.str() + tw.footer(), &error);
    ASSERT_NE(doc, nullptr) << error;
    const json::Value* events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<std::uint64_t, std::pair<int, int>> flows;
    bool sawTenant1Span = false;
    for (const auto& ev : events->array) {
        const std::string ph = ev->str("ph");
        if (ph == "s") {
            flows[static_cast<std::uint64_t>(ev->num("id"))].first++;
        } else if (ph == "f") {
            flows[static_cast<std::uint64_t>(ev->num("id"))].second++;
        } else if (ph == "X" && ev->num("tid") == 1.0) {
            sawTenant1Span = true;
        }
    }
    EXPECT_TRUE(sawTenant1Span) << "departed tenant's spans were lost";
    ASSERT_FALSE(flows.empty());
    for (const auto& [id, se] : flows) {
        EXPECT_EQ(se.first, 1) << "flow " << id;
        EXPECT_EQ(se.second, 1) << "flow " << id;
    }
}

// --- Full-system serving runs with tracing ------------------------------

SystemConfig
tinySystem()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000;
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

/** Overloaded mix (queueing builds up; tail exemplars are interesting). */
ServingConfig
busyTenants()
{
    ServingConfig cfg;
    cfg.horizonCycles = 150'000;
    cfg.tenants.push_back(tenant("emb", "recsys", 3000.0));
    cfg.tenants[0].reserved = true;
    cfg.tenants[0].reservePct = 25.0;
    cfg.tenants[0].sloCycles = 60'000;
    cfg.tenants.push_back(tenant("lin", "mv", 4000.0));
    cfg.tenants[1].sloCycles = 80'000;
    return cfg;
}

std::unique_ptr<Telemetry>
tracingTelemetry(const std::string& prefix, std::uint64_t k = 4)
{
    TelemetryConfig tc;
    tc.outPrefix = prefix;
    tc.packetSampleEvery = 64;
    tc.traceRequests = true;
    tc.traceSlowK = k;
    tc.traceUniformK = k;
    return std::make_unique<Telemetry>(tc);
}

void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    expectSameStats(a, b);
}

struct TracedRun
{
    RunResult result;
    /** The exemplar JSONL rendering (captures the full retained set). */
    std::string exemplars;
};

TracedRun
runTraced(const ServingConfig& serving)
{
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    auto tel = tracingTelemetry("");
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.attachTelemetry(tel.get());
    TracedRun out;
    out.result = sys.run(w);
    out.exemplars = tel->pending(Telemetry::kExemplars);
    return out;
}

/**
 * The tentpole contract: request tracing is observer-only (identical
 * RunResult with tracing on or off) and the exemplar stream itself is
 * bit-identical across runs.
 */
TEST(RequestTraceSystem, ObserverOnlyAndDeterministic)
{
    const ServingConfig serving = busyTenants();

    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    NdpSystem plain(cfg, PolicyKind::NdpExt);
    const RunResult base = plain.run(w);

    const TracedRun first = runTraced(serving);
    const TracedRun second = runTraced(serving);
    expectIdentical(base, first.result);
    expectIdentical(base, second.result);
    EXPECT_FALSE(first.exemplars.empty());
    EXPECT_EQ(first.exemplars, second.exemplars)
        << "exemplar stream differs between identical runs";
}

/**
 * Every retained exemplar reconstructs the full causal span path: the
 * nine stage cycles sum exactly to the request latency, and per tenant
 * and epoch at most slowK + uniformK exemplars are kept, always
 * including the slow set.
 */
TEST(RequestTraceSystem, StageSumEqualsLatencyAndReservoirIsBounded)
{
    const std::uint64_t k = 3;
    const ServingConfig serving = busyTenants();
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    auto tel = tracingTelemetry("", k);
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.attachTelemetry(tel.get());
    const RunResult res = sys.run(w);

    const auto kept = parsedLines(tel->pending(Telemetry::kExemplars));
    ASSERT_FALSE(kept.empty());
    std::map<std::pair<double, std::string>, std::uint64_t> per;
    std::map<std::string, std::uint64_t> slowPerTenant;
    std::uint64_t tenant1 = 0;
    for (const json::ValuePtr& e : kept) {
        const std::string tenant = e->str("tenant");
        EXPECT_EQ(stageSum(*e), e->num("latency"))
            << "unattributed cycles in exemplar (tenant " << tenant
            << ", arrival " << e->num("arrival") << ")";
        EXPECT_GE(e->num("start"), e->num("arrival"));
        EXPECT_GE(e->num("done"), e->num("start"));
        EXPECT_LT(e->num("core"), 8.0);
        ASSERT_TRUE(tenant == "emb" || tenant == "lin") << tenant;
        per[{e->num("epoch"), tenant}]++;
        if (e->str("kind") == "slow") {
            slowPerTenant[tenant]++;
        }
        tenant1 += tenant == "lin" ? 1 : 0;
    }
    for (const auto& [key, count] : per) {
        EXPECT_LE(count, 2 * k)
            << "epoch " << key.first << " tenant " << key.second;
    }
    // Both tenants retire requests in this mix, so both must retain
    // slow exemplars -- the p99 blame view needs them.
    EXPECT_GE(slowPerTenant["emb"], k);
    EXPECT_GE(slowPerTenant["lin"], k);
    EXPECT_GT(tenant1, 0u);
    // Exemplars describe real retired requests.
    EXPECT_GT(res.stats.get("tenant.emb.retired"), 0.0);
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The four telemetry outputs' side-file and final-file suffixes. */
constexpr const char* kStems[] = {".metrics", ".trace", ".decisions",
                                  ".exemplars"};
constexpr const char* kOutputs[] = {".metrics.jsonl", ".trace.json",
                                    ".decisions.jsonl", ".exemplars.jsonl"};

bool
exists(const std::string& path)
{
    struct ::stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Flushing moves text to the .part side files and changes no output
 * byte: a Telemetry that flushes after each of its first epochs (the
 * last epoch stays pending) writes all four files byte-identical to one
 * that never flushed.
 */
TEST(Telemetry, FlushedOutputsMatchUnflushedRun)
{
    const auto emit = [](const std::string& prefix, bool flush) {
        TelemetryConfig tc;
        tc.outPrefix = prefix;
        tc.packetSampleEvery = 1;
        tc.traceRequests = true;
        tc.traceSlowK = 2;
        tc.traceUniformK = 2;
        Telemetry tel(tc);
        double ticks = 0.0;
        tel.metrics().registerCounter("ticks", [&ticks] { return ticks; });
        tel.initPacketSampling(1);
        tel.initRequestTracing(1, twoTenantMetas());
        for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
            const Cycles base = epoch * 10'000;
            for (std::uint32_t i = 0; i < 16; ++i) {
                tel.requestBuffer(0)->push(
                    record(i % 2, 0, base + i * 100, 400 + i * 11));
            }
            PacketSample sample;
            sample.sid = static_cast<StreamId>(epoch);
            sample.start = base;
            sample.bd.metadata = 3;
            sample.bd.extMem = 40 + epoch;
            tel.packetBuffer(0)->record(sample);
            tel.drainPacketSamples();
            tel.drainRequestTraces();
            ticks += 1.0;
            tel.sampleEpoch(epoch, base + 10'000);
            tel.finalizeRequestEpoch(epoch);
            DecisionRecord decision;
            decision.epoch = epoch;
            decision.cycles = base;
            tel.decisions().add(decision);
            tel.trace().completeSpan("epoch", "epoch",
                                     TraceWriter::kPidRuntime, 0, base,
                                     10'000);
            std::string error;
            if (flush && epoch < 2) {
                ASSERT_TRUE(tel.flushToDisk(&error)) << error;
                ASSERT_TRUE(tel.pending(Telemetry::kTrace).empty());
            }
        }
        std::string error;
        ASSERT_TRUE(tel.writeAll(&error)) << error;
    };
    const std::string plain = freshPrefix("flush_plain");
    const std::string flushed = freshPrefix("flush_parts");
    emit(plain, false);
    emit(flushed, true);
    for (const char* suffix : kOutputs) {
        const std::string want = slurp(plain + suffix);
        EXPECT_FALSE(want.empty()) << suffix;
        EXPECT_EQ(slurp(flushed + suffix), want) << suffix;
    }
    for (const char* stem : kStems) {
        EXPECT_FALSE(exists(flushed + stem + ".part")) << stem;
    }
}

/**
 * The exemplar lines flushed at the first two epoch barriers, followed
 * by the text still pending, are exactly what an unflushed collector
 * holds in memory: the .exemplars.part side file a checkpoint relies on
 * is a byte prefix of the output, and writeAll() stitches the rest.
 */
TEST(RequestTraceCollector, FlushedPlusRemainderEqualsFullDump)
{
    TelemetryConfig tc;
    tc.packetSampleEvery = 0;
    tc.traceRequests = true;
    tc.traceSlowK = 2;
    tc.traceUniformK = 2;
    Telemetry full(tc); // empty prefix: everything stays pending
    tc.outPrefix = freshPrefix("exemplar_flush");
    Telemetry flushing(tc);
    full.initRequestTracing(1, twoTenantMetas());
    flushing.initRequestTracing(1, twoTenantMetas());
    std::string error;
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
        for (Telemetry* tel : {&full, &flushing}) {
            for (std::uint32_t i = 0; i < 16; ++i) {
                tel->requestBuffer(0)->push(record(
                    i % 2, 0, epoch * 10'000 + i * 100, 400 + i * 11));
            }
            tel->drainRequestTraces();
            tel->finalizeRequestEpoch(epoch);
        }
        if (epoch < 2) { // mid-run flush; the last epoch stays pending
            ASSERT_TRUE(flushing.flushToDisk(&error)) << error;
            EXPECT_TRUE(flushing.pending(Telemetry::kExemplars).empty());
        }
    }
    const std::string want(full.pending(Telemetry::kExemplars));
    const std::string part = slurp(tc.outPrefix + ".exemplars.part");
    const std::string remainder(flushing.pending(Telemetry::kExemplars));
    EXPECT_FALSE(part.empty());
    EXPECT_FALSE(remainder.empty());
    EXPECT_EQ(part + remainder, want);
    ASSERT_TRUE(flushing.writeAll(&error)) << error;
    EXPECT_EQ(slurp(tc.outPrefix + ".exemplars.jsonl"), want);
}

/**
 * Trace events flushed to the .trace.part side file -- once with only
 * the track names rendered, once mid-stream -- stitch with the pending
 * events and the footer into the trace.json an unflushed Telemetry
 * writes. Each flush ends the side file at an event boundary, so the
 * side file plus the footer is itself a complete trace.
 */
TEST(TraceWriter, FlushedStitchedOutputMatchesUnflushedWrite)
{
    const auto feed = [](TraceWriter& tw, int from, int to) {
        for (int i = from; i < to; ++i) {
            tw.completeSpan("request", "r" + std::to_string(i),
                            TraceWriter::kPidRequests, i % 3,
                            static_cast<Cycles>(i * 10), 5);
            tw.flowStart("request", "req", TraceWriter::kPidRequests,
                         i % 3, static_cast<Cycles>(i * 10),
                         static_cast<std::uint64_t>(i + 1));
            tw.flowEnd("request", "req", TraceWriter::kPidRequests,
                       i % 3, static_cast<Cycles>(i * 10 + 5),
                       static_cast<std::uint64_t>(i + 1));
        }
    };
    std::string error;
    TelemetryConfig tc;
    tc.packetSampleEvery = 0;
    tc.outPrefix = freshPrefix("trace_plain");
    const std::string plainPrefix = tc.outPrefix;
    Telemetry plain(tc);
    feed(plain.trace(), 0, 20);
    ASSERT_TRUE(plain.writeAll(&error)) << error;

    tc.outPrefix = freshPrefix("trace_flushed");
    Telemetry flushed(tc);
    ASSERT_TRUE(flushed.flushToDisk(&error)) << error;
    feed(flushed.trace(), 0, 11);
    ASSERT_TRUE(flushed.flushToDisk(&error)) << error;
    EXPECT_TRUE(flushed.pending(Telemetry::kTrace).empty());
    const json::ValuePtr doc =
        json::parse(slurp(tc.outPrefix + ".trace.part") +
                        flushed.trace().footer(),
                    &error);
    ASSERT_NE(doc, nullptr) << error;
    const json::Value* events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    // The two track names rendered at construction, then 11 x 3 events.
    EXPECT_EQ(events->array.size(), 2u + 33u);
    feed(flushed.trace(), 11, 20);
    ASSERT_TRUE(flushed.writeAll(&error)) << error;
    EXPECT_EQ(slurp(tc.outPrefix + ".trace.json"),
              slurp(plainPrefix + ".trace.json"));
    EXPECT_FALSE(exists(tc.outPrefix + ".trace.part"));
}

/**
 * Kill/resume byte-identity through the flush protocol: a run that
 * checkpoints every epoch (flushing telemetry to .part side files
 * before each snapshot), abandoned mid-run and resumed from a mid-run
 * image by a fresh process-equivalent, must produce byte-identical
 * metrics/trace/decisions/exemplars files to an uninterrupted run --
 * even when the kill tore a record at the end of every side file.
 */
TEST(RequestTraceSystem, ResumeStitchesByteIdenticalArtifacts)
{
    const ServingConfig serving = busyTenants();
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    // Golden: no checkpointing, everything written from memory.
    const std::string gold = freshPrefix("reqtrace_gold");
    {
        auto tel = tracingTelemetry(gold);
        NdpSystem sys(cfg, PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        (void)sys.run(w);
        std::string error;
        ASSERT_TRUE(tel->writeAll(&error)) << error;
    }

    // Emitter: checkpoint + flush every epoch. Its in-memory tail is
    // thrown away (no writeAll) -- only the images and .part files
    // survive, exactly like a killed process.
    const std::string prefix = freshPrefix("reqtrace_resume");
    const std::string ckpt = prefix + ".ckpt";
    {
        auto tel = tracingTelemetry(prefix);
        NdpSystem sys(cfg, PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        sys.setCheckpointing(ckpt, 1);
        (void)sys.run(w);
    }
    ASSERT_FALSE(slurp(prefix + ".exemplars.part").empty());

    std::string newest;
    std::string error;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(ckpt, &newest, &h, &error))
        << error;
    ASSERT_GE(h.epoch, 3u) << "run too short to exercise resume";

    // A kill in mid-append leaves a torn half-record in a side file.
    for (const char* stem : kStems) {
        std::ofstream(prefix + stem + ".part", std::ios::app)
            << "{\"epoch\":9";
    }

    // Resume from a mid-run image: the load cuts the .part files back
    // to the snapshot's byte counts, the rerun appends the rest, and
    // writeAll writes the final files.
    const std::string image =
        ckpt + "." + std::to_string(h.epoch / 2) + ".ckpt";
    auto tel = tracingTelemetry(prefix);
    NdpSystem resumed(cfg, PolicyKind::NdpExt);
    resumed.attachTelemetry(tel.get());
    ASSERT_TRUE(resumed.setResume(image, w, &error)) << error;
    (void)resumed.run(w);
    ASSERT_TRUE(tel->writeAll(&error)) << error;

    for (const char* suffix : kOutputs) {
        const std::string got = slurp(prefix + suffix);
        EXPECT_FALSE(got.empty()) << suffix;
        EXPECT_EQ(got, slurp(gold + suffix)) << suffix;
    }
    for (const char* stem : kStems) {
        EXPECT_FALSE(exists(prefix + stem + ".part")) << stem;
    }
}

/**
 * A side file shorter than the byte count its image recorded cannot be
 * resumed: the load stops at an assert instead of appending after a
 * gap.
 */
TEST(RequestTraceSystem, ShortSideFileAtResumeAsserts)
{
    const ServingConfig serving = busyTenants();
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    const std::string prefix = freshPrefix("reqtrace_short");
    const std::string ckpt = prefix + ".ckpt";
    {
        auto tel = tracingTelemetry(prefix);
        NdpSystem sys(cfg, PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        sys.setCheckpointing(ckpt, 1);
        (void)sys.run(w);
    }
    std::ofstream(prefix + ".metrics.part", std::ios::trunc) << "{";

    auto tel = tracingTelemetry(prefix);
    NdpSystem resumed(cfg, PolicyKind::NdpExt);
    resumed.attachTelemetry(tel.get());
    std::string error;
    ASSERT_TRUE(resumed.setResume(ckpt + ".2.ckpt", w, &error)) << error;
    EXPECT_DEATH(resumed.run(w), "telemetry side file too short at resume");
}

/**
 * writeAll checks every side file's size against its flushed byte count
 * before it writes any output: a side file with stray bytes fails, the
 * error names the file and both sizes, and no final file is written.
 */
TEST(RequestTraceSystem, StitchRefusesSideFileWithStrayBytes)
{
    const ServingConfig serving = busyTenants();
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    const std::string prefix = freshPrefix("reqtrace_stray");
    auto tel = tracingTelemetry(prefix);
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.attachTelemetry(tel.get());
    sys.setCheckpointing(prefix + ".ckpt", 1);
    (void)sys.run(w);
    const std::string part = prefix + ".trace.part";
    const std::uint64_t size = slurp(part).size();
    ASSERT_GT(size, 0u);
    std::ofstream(part, std::ios::app) << "{}\n";

    std::string error;
    EXPECT_FALSE(tel->writeAll(&error));
    EXPECT_NE(error.find("'" + part + "' has " + std::to_string(size + 3)
                         + " bytes, expected " + std::to_string(size)),
              std::string::npos)
        << error;
    for (const char* suffix : kOutputs) {
        EXPECT_FALSE(exists(prefix + suffix)) << suffix;
    }
}

std::uint64_t
fileSize(const std::string& path)
{
    struct ::stat st = {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<std::uint64_t>(st.st_size);
}

/**
 * Satellite: flushing telemetry before each snapshot bounds checkpoint
 * growth. The telemetry contribution to the image (with-telemetry size
 * minus the paired no-telemetry size -- observer-only, so the sim state
 * inside both images is identical) must be flat across epochs even at
 * packet-sample-every-miss rates.
 */
TEST(RequestTraceSystem, CheckpointImageStaysFlatAcrossEpochs)
{
    ServingConfig serving;
    serving.horizonCycles = 150'000;
    serving.tenants.push_back(tenant("emb", "recsys", 15'000.0));
    serving.tenants[0].arrival = "fixed";
    serving.tenants.push_back(tenant("lin", "mv", 18'000.0));
    serving.tenants[1].arrival = "fixed";
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());

    const std::string bare = freshPrefix("reqtrace_img_bare");
    {
        NdpSystem sys(cfg, PolicyKind::NdpExt);
        sys.setCheckpointing(bare, 1);
        (void)sys.run(w);
    }
    const std::string tele = freshPrefix("reqtrace_img_tele");
    {
        TelemetryConfig tc;
        tc.outPrefix = tele;
        // Aggressive sampling: without the pre-snapshot flush this
        // would grow the image every epoch.
        tc.packetSampleEvery = 1;
        tc.traceRequests = true;
        tc.traceSlowK = 4;
        tc.traceUniformK = 4;
        auto tel = std::make_unique<Telemetry>(tc);
        NdpSystem sys(cfg, PolicyKind::NdpExt);
        sys.attachTelemetry(tel.get());
        sys.setCheckpointing(tele + ".ckpt", 1);
        (void)sys.run(w);
    }

    std::vector<std::uint64_t> deltas;
    for (std::uint64_t epoch = 1;; ++epoch) {
        const std::string suffix = "." + std::to_string(epoch) + ".ckpt";
        struct ::stat st = {};
        if (::stat((bare + suffix).c_str(), &st) != 0) {
            break;
        }
        const std::uint64_t with = fileSize(tele + ".ckpt" + suffix);
        const std::uint64_t without = fileSize(bare + suffix);
        ASSERT_GT(with, without);
        deltas.push_back(with - without);
    }
    ASSERT_GE(deltas.size(), 4u) << "run too short to measure growth";
    for (std::size_t i = 1; i < deltas.size(); ++i) {
        EXPECT_LE(deltas[i], deltas[0] + 512)
            << "telemetry checkpoint footprint grew by epoch " << i + 1;
    }
}

/**
 * The heartbeat file: atomically rewritten at every epoch barrier,
 * final write has done=true, and the tenant rows cover the serving
 * config (DESIGN.md §6).
 */
TEST(RequestTraceSystem, HeartbeatFileIsCompleteAndFinal)
{
    const ServingConfig serving = busyTenants();
    SystemConfig cfg = tinySystem();
    cfg.serving = serving;
    ServingWorkload w(serving, cfg.runtime.epochCycles);
    w.prepare(tinyParams());
    const std::string hb = freshPrefix("reqtrace_heartbeat") + ".json";
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    sys.addHeartbeatPath(hb);
    const RunResult res = sys.run(w);

    std::string error;
    const json::ValuePtr doc = json::parse(slurp(hb), &error);
    ASSERT_NE(doc, nullptr) << error;
    const json::Value* done = doc->get("done");
    ASSERT_NE(done, nullptr);
    EXPECT_TRUE(done->isBool() && done->boolean);
    EXPECT_EQ(static_cast<std::uint64_t>(doc->num("cycles")), res.cycles);
    EXPECT_GT(doc->num("epoch"), 0.0);
    EXPECT_EQ(doc->num("epochCycles"),
              static_cast<double>(cfg.runtime.epochCycles));
    EXPECT_EQ(doc->num("horizonCycles"),
              static_cast<double>(serving.horizonCycles));
    EXPECT_EQ(static_cast<std::uint64_t>(doc->num("accesses")),
              res.accesses);
    EXPECT_GT(doc->num("wallUnixMs"), 0.0);
    const json::Value* tenants = doc->get("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_TRUE(tenants->isArray());
    ASSERT_EQ(tenants->array.size(), 2u);
    EXPECT_EQ(tenants->array[0]->str("name"), "emb");
    EXPECT_EQ(tenants->array[0]->num("reserved"), 1.0);
    EXPECT_DOUBLE_EQ(tenants->array[0]->num("retired"),
                     res.stats.get("tenant.emb.retired"));
    EXPECT_DOUBLE_EQ(tenants->array[1]->num("violations"),
                     res.stats.get("tenant.lin.sloViolations"));
}

} // namespace
} // namespace ndpext
