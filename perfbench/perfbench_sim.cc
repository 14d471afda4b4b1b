/**
 * perfbench_sim -- one timed simulator run per process.
 *
 * Does what `ndpext_sim` does for the same flags (makeWorkload +
 * Workload::prepare, NdpSystem::run or HostSystem::run, Telemetry::writeAll,
 * the --stats-json file) and times each of those public calls from the
 * outside. The timings go to --timing-json as spans on steady_clock,
 * which on Linux reads CLOCK_MONOTONIC like Python's time.monotonic(), so
 * run.py can nest them under the process span it measures itself.
 *
 * With --probe the process additionally runs isolated per-layer probes
 * after the simulation: each calls one layer's public function with
 * inputs from this run's own generators and allocations, and reports the
 * host time per call. The simulated result never depends on --probe.
 *
 *   perfbench_sim --workload=pr --policy=ndpext --stats-json=s.json \
 *                 --timing-json=t.json [--probe]
 *   perfbench_sim --build-info
 *
 * Exit status: 0 ok, 1 run or write failure, 2 usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/atomic_file.h"
#include "cxl/extended_memory.h"
#include "mem/mem_backend.h"
#include "ndp/remap_table.h"
#include "ndp/tag_store.h"
#include "noc/noc_model.h"
#include "runtime/config_algorithm.h"
#include "runtime/ndp_runtime.h"
#include "runtime/sampler_assign.h"
#include "serving/serving_workload.h"
#include "system/host_system.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "telemetry/tiny_json.h"
#include "workloads/graph.h"
#include "workloads/workload.h"

using namespace ndpext;

namespace {

constexpr const char* kUsage =
    "usage: perfbench_sim [--workload=NAME | --tenant=SPEC...] [options]\n"
    "  --policy=NAME --stacks=XxY --units=XxY --accesses=N\n"
    "  --footprint-mb=N --epoch=N --solver-warm-start --seed=N\n"
    "  --horizon=N --telemetry=PREFIX --trace-requests\n"
    "  --checkpoint=PREFIX --checkpoint-every=N\n"
    "  --stats-json=FILE --timing-json=FILE --probe\n"
    "  --build-info\n";

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "perfbench_sim: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
number(const std::string& text)
{
    if (text.empty()
        || text.find_first_not_of("0123456789") != std::string::npos) {
        usageError("bad number: '" + text + "'");
    }
    return std::stoull(text);
}

void
grid(const std::string& text, std::uint32_t& x, std::uint32_t& y)
{
    const auto pos = text.find('x');
    if (pos == std::string::npos) {
        usageError("bad grid: '" + text + "' (expected XxY)");
    }
    x = static_cast<std::uint32_t>(number(text.substr(0, pos)));
    y = static_cast<std::uint32_t>(number(text.substr(pos + 1)));
}

struct Options
{
    std::string workload = "pr";
    std::string policy = "ndpext";
    std::uint32_t stacksX = 4, stacksY = 2, unitsX = 2, unitsY = 4;
    std::uint64_t accesses = 20000;
    std::uint64_t footprintMb = 96;
    std::uint64_t epoch = 0;
    bool solverWarmStart = false;
    std::uint64_t seed = 42;
    std::vector<std::string> tenants;
    std::uint64_t horizon = 0;
    std::string telemetry;
    bool traceRequests = false;
    std::string checkpoint;
    std::uint64_t checkpointEvery = 1;
    std::string statsJson;
    std::string timingJson;
    bool probe = false;
};

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--build-info") {
            std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                        "\"cxx_flags\": \"%s\"}\n",
                        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                        PERFBENCH_CXX_FLAGS);
            std::exit(0);
        } else if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--policy") {
            opt.policy = val;
        } else if (key == "--stacks") {
            grid(val, opt.stacksX, opt.stacksY);
        } else if (key == "--units") {
            grid(val, opt.unitsX, opt.unitsY);
        } else if (key == "--accesses") {
            opt.accesses = number(val);
        } else if (key == "--footprint-mb") {
            opt.footprintMb = number(val);
        } else if (key == "--epoch") {
            opt.epoch = number(val);
        } else if (key == "--solver-warm-start") {
            opt.solverWarmStart = true;
        } else if (key == "--seed") {
            opt.seed = number(val);
        } else if (key == "--tenant") {
            opt.tenants.push_back(val);
        } else if (key == "--horizon") {
            opt.horizon = number(val);
        } else if (key == "--telemetry") {
            opt.telemetry = val;
        } else if (key == "--trace-requests") {
            opt.traceRequests = true;
        } else if (key == "--checkpoint") {
            opt.checkpoint = val;
        } else if (key == "--checkpoint-every") {
            opt.checkpointEvery = number(val);
        } else if (key == "--stats-json") {
            opt.statsJson = val;
        } else if (key == "--timing-json") {
            opt.timingJson = val;
        } else if (key == "--probe") {
            opt.probe = true;
        } else {
            usageError("unknown argument: '" + arg + "'");
        }
    }
    if (opt.statsJson.empty() || opt.timingJson.empty()) {
        usageError("--stats-json and --timing-json are required");
    }
    return opt;
}

/** The --stats-json body of ndpext_sim, plus the metadata hit rate. */
void
writeStatsJsonBody(const RunResult& r, std::ostream& out)
{
    char buf[64];
    const auto real = [&buf](double v) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    };
    out << "{\n";
    out << "  \"workload\": \"" << r.workload << "\",\n";
    out << "  \"policy\": \"" << r.policy << "\",\n";
    out << "  \"cycles\": " << r.cycles << ",\n";
    out << "  \"accesses\": " << r.accesses << ",\n";
    out << "  \"l1Hits\": " << r.l1Hits << ",\n";
    out << "  \"missRate\": " << real(r.missRate) << ",\n";
    out << "  \"metadataHitRate\": " << real(r.metadataHitRate) << ",\n";
    out << "  \"avgMemLatencyCycles\": " << real(r.avgMemLatency()) << ",\n";
    out << "  \"energyNj\": " << real(r.energy.totalNj()) << ",\n";
    out << "  \"reconfigurations\": " << r.reconfigurations << ",\n";
    out << "  \"engineWallMicros\": " << r.engineWallMicros << ",\n";
    out << "  \"engineAccessesPerSec\": " << real(r.engineAccessesPerSec())
        << ",\n";
    out << "  \"writeExceptions\": " << r.writeExceptions << ",\n";
    out << "  \"stats\": ";
    r.stats.dumpJson(out);
    out << "\n}\n";
}

/** One access the probe replays, tagged with the core that issued it. */
struct Sample
{
    CoreId core;
    Access acc;
};

/** Host nanoseconds per call of `body(sample)`, over >= 50 ms of calls. */
template <typename Body>
double
nsPerCall(const std::vector<Sample>& samples, Body&& body)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::uint64_t calls = 0;
    const double start = monotonicSeconds();
    double elapsed = 0.0;
    do {
        for (const Sample& s : samples) {
            body(s);
        }
        calls += samples.size();
        elapsed = monotonicSeconds() - start;
    } while (elapsed < 0.05);
    return elapsed * 1e9 / static_cast<double>(calls);
}

/**
 * Isolated per-layer probes. Inputs: the first accesses of this run's
 * generators (round-robin over the cores, as the engine pulls them), and
 * an even-share allocation of the run's streams over every unit.
 */
void
writeProbe(const SystemConfig& cfg, PolicyKind policy, bool host,
           const Workload& workload, const StatGroup& stats,
           std::ostream& out)
{
    constexpr std::size_t kSamples = 1 << 16;
    const std::uint32_t cores = workload.params().numCores;
    const Cycles farFuture = ~Cycles{0} >> 2;

    // workloads: AccessGenerator::next, and R-MAT at the graph's scale.
    std::vector<std::unique_ptr<AccessGenerator>> gens;
    for (CoreId c = 0; c < cores; ++c) {
        gens.push_back(workload.makeGenerator(c));
    }
    std::vector<Sample> samples;
    samples.reserve(kSamples);
    std::vector<bool> live(cores, true);
    std::uint32_t liveCount = cores;
    const double genStart = monotonicSeconds();
    while (samples.size() < kSamples && liveCount > 0) {
        for (CoreId c = 0; c < cores && samples.size() < kSamples; ++c) {
            Sample s{c, Access{}};
            if (live[c] && gens[c]->next(s.acc, farFuture)) {
                samples.push_back(s);
            } else if (live[c]) {
                live[c] = false;
                --liveCount;
            }
        }
    }
    const double genNs = samples.empty()
        ? 0.0
        : (monotonicSeconds() - genStart) * 1e9
            / static_cast<double>(samples.size());

    double rmatS = 0.0;
    for (const StreamConfig& sc : workload.streamConfigs()) {
        if (sc.name == "csr_offsets" && sc.size / 8 > 1) {
            std::uint32_t scale = 0;
            while ((std::uint64_t{1} << (scale + 1)) <= sc.size / 8 - 1) {
                ++scale;
            }
            const double t0 = monotonicSeconds();
            const CsrGraph g =
                makeRmatGraph(scale, 16, workload.params().seed + 13);
            rmatS = monotonicSeconds() - t0;
            if (g.numEdges == 0) {
                rmatS = 0.0;
            }
            break;
        }
    }

    // cache: the per-core L1D front end.
    std::vector<SramCache> l1;
    for (CoreId c = 0; c < cores; ++c) {
        l1.emplace_back(cfg.core.l1dCapacityBytes, cfg.core.lineBytes,
                        cfg.core.l1dWays);
    }
    const double l1Ns = nsPerCall(samples, [&l1](const Sample& s) {
        l1[s.core].access(s.acc.addr, s.acc.isWrite);
    });

    double locateNs = 0.0, tagNs = 0.0, transferNs = 0.0;
    double cxlNs = 0.0, rowNs = 0.0;
    if (!host) {
        StreamTable table;
        workload.registerStreams(table);
        MeshTopology topo(cfg.stacksX, cfg.stacksY, cfg.unitsX, cfg.unitsY);
        NocModel noc(topo, cfg.noc);
        const MemBackendConfig unitDram = cfg.unitMemBackend();
        const auto rowBytes =
            static_cast<std::uint32_t>(unitDram.timing.rowBytes);
        const auto rowsPerUnit =
            static_cast<std::uint32_t>(cfg.unitCacheBytes / rowBytes);
        const bool lineMode = isCachelinePolicy(policy);
        StreamRemapTable remap(cores, rowsPerUnit, rowBytes,
                               cfg.cache.remapMode);

        const std::size_t numStreams = table.numStreams();
        const auto share = static_cast<std::uint32_t>(std::max<std::size_t>(
            1, rowsPerUnit / std::max<std::size_t>(1, numStreams)));
        std::vector<std::uint32_t> granule(numStreams, kCachelineBytes);
        for (StreamId sid = 0;
             sid < numStreams && (sid + 1) * share <= rowsPerUnit; ++sid) {
            const StreamConfig& sc = table.stream(sid);
            if (!lineMode) {
                granule[sid] = sc.type == StreamType::Affine
                    ? std::max(cfg.cache.affineBlockBytes, sc.elemSize)
                    : std::max<std::uint32_t>(sc.elemSize, kCachelineBytes);
            }
            StreamAlloc alloc(cores);
            for (UnitId u = 0; u < cores; ++u) {
                alloc.shareRows[u] = share;
                alloc.rowBase[u] = sid * share;
            }
            alloc.numGroups = 1;
            remap.setAlloc(sid, alloc, granule[sid], noc);
        }
        const auto granuleId = [&](const Sample& s) -> std::uint64_t {
            if (lineMode) {
                return s.acc.addr / kCachelineBytes;
            }
            const StreamConfig& sc = table.stream(s.acc.sid);
            return s.acc.elem
                / std::max<std::uint64_t>(1, granule[s.acc.sid] / sc.elemSize);
        };

        // Stream accesses with an allocation; their resolved locations
        // feed the tag, NoC and unit-DRAM probes.
        std::vector<Sample> streamed;
        std::vector<CacheLocation> where;
        for (const Sample& s : samples) {
            if (s.acc.sid < numStreams
                && remap.alloc(s.acc.sid) != nullptr) {
                streamed.push_back(s);
                where.push_back(
                    remap.locate(s.acc.sid, granuleId(s), s.core));
            }
        }
        volatile std::uint32_t sink = 0;
        locateNs = nsPerCall(streamed, [&](const Sample& s) {
            sink = sink
                + remap.locate(s.acc.sid, granuleId(s), s.core).deviceRow;
        });

        std::vector<std::unique_ptr<TagStore>> stores(std::size_t{cores}
                                                      * numStreams);
        const std::uint32_t ways = lineMode ? 1 : cfg.cache.indirectWays;
        std::size_t i = 0;
        tagNs = nsPerCall(streamed, [&](const Sample& s) {
            const CacheLocation& loc = where[i++ % where.size()];
            auto& ts = stores[std::size_t{loc.unit} * numStreams + s.acc.sid];
            if (ts == nullptr) {
                const std::uint64_t slots =
                    std::uint64_t{share} * rowBytes / granule[s.acc.sid];
                ts = std::make_unique<TagStore>(
                    std::max<std::uint64_t>(ways, slots), ways);
            }
            ts->accessFill(loc.unitSlot, granuleId(s) % TagStore::kMaxKey,
                           s.acc.isWrite);
        });

        // noc: unit-to-owner transfers, with CXL-portal legs mixed in at
        // the run's ratio of extended-memory accesses to transfers.
        const double transfers = stats.get("noc.transfers");
        const double extAccesses = std::max(1.0, stats.get("ext.accesses"));
        const std::uint64_t cxlEvery = transfers <= 0.0
            ? 0
            : static_cast<std::uint64_t>(
                std::max(1.0, transfers / extAccesses));
        Cycles now = 0;
        i = 0;
        transferNs = nsPerCall(streamed, [&](const Sample& s) {
            const std::size_t k = i++;
            const CacheLocation& loc = where[k % where.size()];
            now += 4;
            if (cxlEvery != 0 && k % cxlEvery == cxlEvery - 1) {
                noc.transferToCxl(s.core, 64, now, s.acc.sid);
            } else {
                noc.transfer(s.core, loc.unit, 64, now, s.acc.sid);
            }
        });

        ExtendedMemory ext(cfg.cxl, cfg.extMemBackend(), cfg.coreFreqMhz);
        now = 0;
        cxlNs = nsPerCall(samples, [&](const Sample& s) {
            now += 4;
            ext.access(s.acc.addr, 64, s.acc.isWrite, now, s.acc.sid);
        });

        const auto unitBackend = createMemBackend(unitDram, cfg.coreFreqMhz);
        const std::uint32_t banks =
            std::max<std::uint32_t>(1, unitDram.timing.totalBanks());
        now = 0;
        i = 0;
        rowNs = nsPerCall(streamed, [&](const Sample& s) {
            const CacheLocation& loc = where[i++ % where.size()];
            now += 4;
            unitBackend->accessRow(loc.deviceRow % banks, loc.deviceRow, 64,
                                   s.acc.isWrite, now);
        });
    }

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"samples\": %zu, \"gen_ns\": %.6g, \"rmat_s\": %.6g, "
                  "\"l1_ns\": %.6g, \"locate_ns\": %.6g, \"tag_ns\": %.6g, "
                  "\"transfer_ns\": %.6g, \"cxl_ns\": %.6g, \"row_ns\": %.6g}",
                  samples.size(), genNs, rmatS, l1Ns, locateNs, tagNs,
                  transferNs, cxlNs, rowNs);
    out << buf;
}

/** The demands of every decision in a PREFIX.decisions.jsonl log. */
std::vector<std::vector<StreamDemand>>
loadDemands(const std::string& path)
{
    std::vector<std::vector<StreamDemand>> out;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<json::ValuePtr> lines;
    std::string error;
    if (!in || !json::parseLines(buf.str(), lines, &error)) {
        return out;
    }
    const auto numbers = [](const json::Value* v) {
        std::vector<double> values;
        if (v != nullptr && v->isArray()) {
            for (const auto& e : v->array) {
                values.push_back(e->number);
            }
        }
        return values;
    };
    for (const auto& rec : lines) {
        std::vector<StreamDemand> demands;
        const json::Value* list = rec->get("demands");
        if (list == nullptr) {
            continue;
        }
        for (const auto& jd : list->array) {
            StreamDemand sd;
            sd.sid = static_cast<StreamId>(jd->num("sid"));
            sd.footprintBytes =
                static_cast<std::uint64_t>(jd->num("footprintBytes"));
            sd.granuleBytes =
                static_cast<std::uint32_t>(jd->num("granuleBytes"));
            const json::Value* ro = jd->get("readOnly");
            sd.readOnly = ro != nullptr && ro->boolean;
            const json::Value* af = jd->get("affine");
            sd.affine = af != nullptr && af->boolean;
            for (const double u : numbers(jd->get("accUnits"))) {
                sd.accUnits.push_back(static_cast<UnitId>(u));
            }
            for (const double c : numbers(jd->get("accCounts"))) {
                sd.accCounts.push_back(static_cast<std::uint64_t>(c));
            }
            if (const json::Value* curve = jd->get("curve")) {
                std::vector<std::uint64_t> caps;
                for (const double c : numbers(curve->get("capacities"))) {
                    caps.push_back(static_cast<std::uint64_t>(c));
                }
                sd.curve = MissCurve(caps, numbers(curve->get("misses")));
            }
            demands.push_back(std::move(sd));
        }
        if (!demands.empty()) {
            out.push_back(std::move(demands));
        }
    }
    return out;
}

/**
 * Replay the run's recorded decisions through Algorithm 1
 * (ConfigAlgorithm::run) and the sampler assignment (cold, or warm from
 * the previous decision when the run warm-starts). Microseconds per
 * decision for each; zeros when the run wrote no decision log.
 */
std::pair<double, double>
replayDecisions(const SystemConfig& cfg, const std::string& log)
{
    const auto decisions = loadDemands(log);
    if (decisions.empty()) {
        return {0.0, 0.0};
    }
    const MeshTopology topo(cfg.stacksX, cfg.stacksY, cfg.unitsX,
                            cfg.unitsY);
    const NocModel noc(topo, cfg.noc);
    const MemBackendConfig unitDram = cfg.unitMemBackend();
    ConfigParams params;
    params.numUnits = cfg.numUnits();
    params.rowBytes = static_cast<std::uint32_t>(unitDram.timing.rowBytes);
    params.rowsPerUnit =
        static_cast<std::uint32_t>(cfg.unitCacheBytes / params.rowBytes);
    params.affineCapBytesPerUnit = cfg.cache.affineCapBytesPerUnit;
    params.dramLatency =
        createMemBackend(unitDram, cfg.coreFreqMhz)->rowHitLatency();
    params.allowReplication = cfg.allowReplication;
    ConfigAlgorithm algo(params, noc);
    double t0 = monotonicSeconds();
    for (const auto& demands : decisions) {
        algo.run(demands);
    }
    const double configUs =
        (monotonicSeconds() - t0) * 1e6 / decisions.size();

    const SamplerAssigner assigner(cfg.cache.samplersPerUnit);
    SamplerAssignment prev;
    std::map<StreamId, std::uint64_t> prevPrints;
    double assignSeconds = 0.0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        std::vector<std::vector<bool>> accessed(cfg.numUnits());
        std::set<StreamId> sids;
        std::map<StreamId, std::uint64_t> prints;
        for (const StreamDemand& d : decisions[i]) {
            sids.insert(d.sid);
            prints[d.sid] = demandFingerprint(d);
        }
        for (auto& row : accessed) {
            row.assign(sids.empty() ? 0 : *sids.rbegin() + 1, false);
        }
        for (const StreamDemand& d : decisions[i]) {
            for (const UnitId u : d.accUnits) {
                if (u < accessed.size()) {
                    accessed[u][d.sid] = true;
                }
            }
        }
        std::set<StreamId> delta;
        for (const auto& [sid, print] : prints) {
            const auto it = prevPrints.find(sid);
            if (it == prevPrints.end() || it->second != print) {
                delta.insert(sid);
            }
        }
        for (const auto& [sid, print] : prevPrints) {
            if (prints.count(sid) == 0) {
                delta.insert(sid);
            }
        }
        const std::vector<StreamId> streams(sids.begin(), sids.end());
        t0 = monotonicSeconds();
        prev = cfg.runtime.solverWarmStart && i > 0
            ? assigner.assignWarm(accessed, streams, prev,
                                  {delta.begin(), delta.end()})
            : assigner.assign(accessed, streams);
        assignSeconds += monotonicSeconds() - t0;
        prevPrints = std::move(prints);
    }
    return {configUs, assignSeconds * 1e6 / decisions.size()};
}

struct Span
{
    const char* name;
    double start;
    double end;
};

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    const bool host = opt.policy == "host";

    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = opt.stacksX;
    cfg.stacksY = opt.stacksY;
    cfg.unitsX = opt.unitsX;
    cfg.unitsY = opt.unitsY;
    if (opt.epoch != 0) {
        cfg.runtime.epochCycles = opt.epoch;
    }
    cfg.runtime.solverWarmStart = opt.solverWarmStart;
    for (const std::string& spec : opt.tenants) {
        TenantSpec tenant;
        std::string error;
        if (!parseTenantSpec(spec, &tenant, &error)) {
            usageError("bad --tenant: " + error);
        }
        cfg.serving.tenants.push_back(std::move(tenant));
    }
    if (opt.horizon != 0) {
        cfg.serving.horizonCycles = opt.horizon;
    }
    std::string error;
    if (!cfg.validate(&error)) {
        usageError("invalid configuration: " + error);
    }
    cfg.finalize();
    PolicyKind policy = PolicyKind::NdpExt;
    if (!host) {
        policy = policyFromName(opt.policy);
    }

    std::vector<Span> spans;
    WorkloadParams params;
    params.numCores = cfg.numUnits();
    params.footprintBytes = opt.footprintMb * 1_MiB;
    params.accessesPerCore = opt.accesses;
    params.seed = opt.seed;
    std::unique_ptr<Workload> workload;
    if (cfg.serving.enabled()) {
        workload = std::make_unique<ServingWorkload>(
            cfg.serving, cfg.runtime.epochCycles);
    } else {
        workload = makeWorkload(opt.workload);
    }
    double t0 = monotonicSeconds();
    workload->prepare(params);
    spans.push_back({"workloads.prepare", t0, monotonicSeconds()});

    RunResult result;
    if (host) {
        HostParams hp;
        hp.meshX = 8;
        hp.meshY = (cfg.numUnits() + 7) / 8;
        hp.numCores = hp.meshX * hp.meshY;
        if (hp.numCores != cfg.numUnits()) {
            usageError("--policy=host needs a core count divisible by 8");
        }
        hp.dram = cfg.hostMemBackend();
        HostSystem system(hp);
        t0 = monotonicSeconds();
        result = system.run(*workload);
        spans.push_back({"baselines.host_run", t0, monotonicSeconds()});
    } else {
        NdpSystem system(cfg, policy);
        std::unique_ptr<Telemetry> telemetry;
        if (!opt.telemetry.empty()) {
            TelemetryConfig tcfg;
            tcfg.outPrefix = opt.telemetry;
            tcfg.traceRequests = opt.traceRequests;
            telemetry = std::make_unique<Telemetry>(tcfg);
            system.attachTelemetry(telemetry.get());
            system.addHeartbeatPath(opt.telemetry + ".heartbeat.json");
        }
        if (!opt.checkpoint.empty()) {
            system.setCheckpointing(opt.checkpoint, opt.checkpointEvery);
            system.addHeartbeatPath(opt.checkpoint + ".heartbeat.json");
        }
        t0 = monotonicSeconds();
        result = system.run(*workload);
        spans.push_back({"system.run", t0, monotonicSeconds()});
        if (telemetry != nullptr) {
            t0 = monotonicSeconds();
            const bool ok = telemetry->writeAll(&error);
            spans.push_back({"telemetry.write", t0, monotonicSeconds()});
            if (!ok) {
                std::fprintf(stderr, "perfbench_sim: %s\n", error.c_str());
                return 1;
            }
        }
    }

    t0 = monotonicSeconds();
    if (!writeFileAtomic(opt.statsJson, [&result](std::ostream& out) {
            writeStatsJsonBody(result, out);
        })) {
        std::fprintf(stderr, "perfbench_sim: cannot write '%s'\n",
                     opt.statsJson.c_str());
        return 1;
    }
    spans.push_back({"stats.write", t0, monotonicSeconds()});
    const double lastArtifact = monotonicSeconds();

    std::ofstream timing(opt.timingJson, std::ios::trunc);
    timing.precision(17);
    timing << "{\"last_artifact\": " << lastArtifact << ", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        timing << (i == 0 ? "" : ", ") << "{\"name\": \"" << spans[i].name
               << "\", \"start\": " << spans[i].start
               << ", \"end\": " << spans[i].end << "}";
    }
    timing << "], \"probe\": ";
    if (opt.probe) {
        const auto [configUs, assignUs] =
            replayDecisions(cfg, opt.telemetry + ".decisions.jsonl");
        timing << "{\"config_us\": " << configUs
               << ", \"assign_us\": " << assignUs << ", \"layers\": ";
        writeProbe(cfg, policy, host, *workload, result.stats, timing);
        timing << "}";
    } else {
        timing << "null";
    }
    timing << "}\n";
    if (!timing) {
        std::fprintf(stderr, "perfbench_sim: cannot write '%s'\n",
                     opt.timingJson.c_str());
        return 1;
    }
    return 0;
}
