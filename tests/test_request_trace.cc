/**
 * End-to-end request tracing (DESIGN.md §6): the per-stage identity
 * (stage cycles sum exactly to request latency), the bounded
 * deterministic exemplar reservoirs, the observer-only contract
 * (tracing on/off never changes a RunResult; repeat runs give the same
 * exemplar stream), flow-event rendering and tenant-churn robustness in
 * the TraceWriter, checkpoint kill/resume byte-identity of every
 * telemetry artifact through the .part flush protocol, the
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

TEST(RequestTraceCollector, ReservoirIsBoundedAndKeepsTheSlowest)
{
    RequestTraceCollector::Params p;
    p.slowK = 4;
    p.uniformK = 4;
    RequestTraceCollector col(p);
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

    const auto& kept = col.retained();
    ASSERT_FALSE(kept.empty());
    EXPECT_LE(kept.size(), p.slowK + p.uniformK);
    std::uint64_t slow = 0;
    for (const auto& e : kept) {
        EXPECT_EQ(e.epoch, 0u);
        EXPECT_EQ(e.rec.tenant, 0u);
        EXPECT_EQ(e.rec.stageSum(), e.rec.latency());
        if (e.slow) {
            ++slow;
            // The slow set must be exactly the largest latencies: every
            // non-retained request (latency < 500 + 96*7) is slower
            // than none of them.
            EXPECT_GE(e.rec.latency(), 500u + 96u * 7u);
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
        auto col = std::make_unique<RequestTraceCollector>(p);
        col->init(2, twoTenantMetas(), nullptr);
        for (std::uint32_t i = 0; i < 64; ++i) {
            col->buffer(i % 2)->push(record(i % 2, i % 2, i * 100,
                                            300 + (i * 37) % 900));
        }
        col->drain();
        col->finalizeEpoch(0);
        for (std::uint32_t i = 0; i < 64; ++i) {
            col->buffer(0)->push(
                record(1, 0, 100'000 + i * 50, 200 + (i * 13) % 700));
        }
        col->drain();
        col->finalizeEpoch(1);
        std::ostringstream os;
        col->writeJsonl(os);
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

TEST(RequestTraceCollector, FlushedPlusRemainderEqualsFullDump)
{
    RequestTraceCollector::Params p;
    p.slowK = 2;
    p.uniformK = 2;
    RequestTraceCollector full(p);
    RequestTraceCollector flushing(p);
    full.init(1, twoTenantMetas(), nullptr);
    flushing.init(1, twoTenantMetas(), nullptr);
    std::ostringstream flushed;
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
        for (std::uint32_t i = 0; i < 16; ++i) {
            const RequestTraceRecord r =
                record(i % 2, 0, epoch * 10'000 + i * 100, 400 + i * 11);
            full.buffer(0)->push(r);
            flushing.buffer(0)->push(r);
        }
        full.drain();
        flushing.drain();
        full.finalizeEpoch(epoch);
        flushing.finalizeEpoch(epoch);
        flushing.flushJsonl(flushed); // mid-run flush every epoch
    }
    std::ostringstream want;
    full.writeJsonl(want);
    EXPECT_EQ(flushed.str(), want.str());
    EXPECT_TRUE(flushing.retained().empty());
    EXPECT_GT(flushing.flushedExemplars(), 0u);
}

// --- TraceWriter: flows, churn, duplicate metadata ----------------------

TEST(TraceWriter, FlowEventsRenderWithSharedIdAndBindingPoint)
{
    TraceWriter tw;
    tw.flowStart("request", "req", TraceWriter::kPidRequests, 0, 100, 7);
    tw.flowStep("request", "req", TraceWriter::kPidRequests, 0, 150, 7);
    tw.flowEnd("request", "req", TraceWriter::kPidRequests, 0, 200, 7);
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
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
    TraceWriter tw;
    tw.processName(TraceWriter::kPidRequests, "requests"); // duplicate
    RequestTraceCollector col(p);
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

    std::ostringstream os;
    tw.write(os);
    std::string error;
    const json::ValuePtr doc = json::parse(os.str(), &error);
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
    TraceWriter plain;
    feed(plain, 0, 20);
    std::ostringstream want;
    plain.write(want);

    TraceWriter flushed;
    feed(flushed, 0, 11);
    std::ostringstream part;
    flushed.flushEventsTo(part);
    EXPECT_EQ(flushed.flushedEvents(), 33u);
    feed(flushed, 11, 20);
    std::istringstream in(part.str());
    std::ostringstream got;
    flushed.writeStitched(got, in);
    EXPECT_EQ(got.str(), want.str());
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
    std::ostringstream os;
    tel->requestTrace().writeJsonl(os);
    out.exemplars = os.str();
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

    const auto& kept = tel->requestTrace().retained();
    ASSERT_FALSE(kept.empty());
    std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> per;
    std::map<std::uint32_t, std::uint64_t> slowPerTenant;
    std::uint64_t tenant1 = 0;
    for (const auto& e : kept) {
        EXPECT_EQ(e.rec.stageSum(), e.rec.latency())
            << "unattributed cycles in exemplar (tenant " << e.rec.tenant
            << ", arrival " << e.rec.arrival << ")";
        EXPECT_GE(e.rec.start, e.rec.arrival);
        EXPECT_GE(e.rec.done, e.rec.start);
        EXPECT_LT(e.rec.core, 8u);
        ASSERT_LT(e.rec.tenant, 2u);
        per[{e.epoch, e.rec.tenant}]++;
        if (e.slow) {
            slowPerTenant[e.rec.tenant]++;
        }
        tenant1 += e.rec.tenant == 1 ? 1 : 0;
    }
    for (const auto& [key, count] : per) {
        EXPECT_LE(count, 2 * k)
            << "epoch " << key.first << " tenant " << key.second;
    }
    // Both tenants retire requests in this mix, so both must retain
    // slow exemplars -- the p99 blame view needs them.
    EXPECT_GE(slowPerTenant[0], k);
    EXPECT_GE(slowPerTenant[1], k);
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

/**
 * Kill/resume byte-identity through the flush protocol: a run that
 * checkpoints every epoch (flushing telemetry to .part side files
 * before each snapshot), abandoned mid-run and resumed from a mid-run
 * image by a fresh process-equivalent, must produce byte-identical
 * metrics/trace/decisions/exemplars files to an uninterrupted run.
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

    // Resume from a mid-run image: deserialize truncates the .part
    // files back to the snapshot's flush cursors, the rerun appends the
    // rest, and writeAll stitches the final files.
    const std::string image =
        ckpt + "." + std::to_string(h.epoch / 2) + ".ckpt";
    auto tel = tracingTelemetry(prefix);
    NdpSystem resumed(cfg, PolicyKind::NdpExt);
    resumed.attachTelemetry(tel.get());
    ASSERT_TRUE(resumed.setResume(image, w, &error)) << error;
    (void)resumed.run(w);
    ASSERT_TRUE(tel->writeAll(&error)) << error;

    for (const char* suffix :
         {".exemplars.jsonl", ".metrics.jsonl", ".decisions.jsonl",
          ".trace.json"}) {
        const std::string got = slurp(prefix + suffix);
        EXPECT_FALSE(got.empty()) << suffix;
        EXPECT_EQ(got, slurp(gold + suffix)) << suffix;
    }
}

/**
 * writeAll checks every side file's line count against its flush cursor
 * before it streams any of them: a side file with a stray line fails
 * the stitch and no final file is written.
 */
TEST(RequestTraceSystem, StitchRefusesSideFileWithStrayLine)
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
    ASSERT_FALSE(slurp(prefix + ".trace.part").empty());
    std::ofstream(prefix + ".trace.part", std::ios::app) << "{}\n";

    std::string error;
    EXPECT_FALSE(tel->writeAll(&error));
    EXPECT_NE(error.find(".trace.part' has "), std::string::npos) << error;
    EXPECT_FALSE(std::ifstream(prefix + ".metrics.jsonl").good());
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
