#include "system/ndp_system.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "baselines/nuca_policies.h"
#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/static_config.h"
#include "serving/serving_workload.h"
#include "sim/checkpoint.h"
#include "sim/sharded_executor.h"
#include "telemetry/json_out.h"
#include "telemetry/telemetry.h"

namespace ndpext {

namespace {

/** Build the configurator matching the policy. */
std::unique_ptr<Configurator>
makeConfigurator(PolicyKind policy, const SystemConfig& cfg,
                 const StreamCacheController& cache, const NocModel& noc)
{
    const auto probe =
        createMemBackend(cfg.unitMemBackend(), cfg.coreFreqMhz);

    BaselineContext ctx;
    ctx.numUnits = cache.numUnits();
    ctx.rowsPerUnit = cache.rowsPerUnit();
    ctx.rowBytes = cache.rowBytes();
    ctx.dramLatency = probe->rowHitLatency();

    switch (policy) {
      case PolicyKind::NdpExt: {
        ConfigParams params;
        params.numUnits = cache.numUnits();
        params.rowsPerUnit = cache.rowsPerUnit();
        params.rowBytes = cache.rowBytes();
        params.affineCapBytesPerUnit =
            cache.params().affineCapBytesPerUnit;
        params.dramLatency = probe->rowHitLatency();
        params.allowReplication = cfg.allowReplication;
        params.budgetIterations = cfg.runtime.solverBudgetIters;
        params.budgetMicros = cfg.runtime.solverBudgetMicros;
        return std::make_unique<NdpExtConfigurator>(params, noc);
      }
      case PolicyKind::NdpExtStatic:
        return std::make_unique<StaticEqualConfigurator>(cache);
      case PolicyKind::Jigsaw:
        return std::make_unique<JigsawConfigurator>(ctx, noc);
      case PolicyKind::Whirlpool:
        return std::make_unique<WhirlpoolConfigurator>(ctx, noc);
      case PolicyKind::Nexus:
        return std::make_unique<NexusConfigurator>(ctx, noc);
      case PolicyKind::StaticInterleave:
        return std::make_unique<StaticInterleaveConfigurator>(ctx, noc);
    }
    NDP_PANIC("bad policy kind");
}

/**
 * One shard of the simulated machine: the cores of one stack plus
 * private NoC/CXL models carrying that stack's share of the global
 * bandwidth, and (in faulty runs) a private fault injector for the
 * Bernoulli fault classes. Shards share no mutable state between epoch
 * barriers, so they run on any number of threads with identical results.
 */
struct Shard
{
    std::unique_ptr<NocModel> noc;
    std::unique_ptr<ExtendedMemory> ext;
    std::unique_ptr<FaultInjector> fault;
    using HeapItem = std::pair<Cycles, CoreId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        ready;
    Cycles finish = 0;
    /** Core-step events this shard fired (deterministic: the schedule
     *  is fixed per shard, independent of --threads). */
    std::uint64_t steps = 0;
    /**
     * Highest cycle any of this shard's cores reached (shard-private,
     * updated on the shard's own thread): the telemetry execute /
     * barrier-wait split at each barrier. Simulated time, so the split
     * is identical for any --threads value.
     */
    Cycles busyUntil = 0;
};

/**
 * The per-stream cost attribution series (ndpext_report topdown) as
 * (name suffix, getter) pairs in registration order. Telemetry registers
 * each as a counter and --stats-json writes its final value, so both
 * carry one definition. The getters take kNoStream for the "none" slot,
 * which keeps the series summing to the machine totals.
 */
using StreamGetter = std::function<double(StreamId sid)>;
using StreamSeries = std::vector<std::pair<std::string, StreamGetter>>;

StreamSeries
streamSeries(const std::vector<InOrderCore>& cores,
             const std::vector<Shard>& shards,
             const StreamCacheController& cache)
{
    StreamSeries out;
    out.emplace_back("stallCycles", [&cores](StreamId sid) {
        Cycles total = 0;
        for (const auto& core : cores) {
            total += sid == kNoStream ? core.noStreamStallCycles()
                                      : core.streamStallCycles(sid);
        }
        return double(total);
    });
    using BdField = Cycles LatencyBreakdown::*;
    static const std::pair<const char*, BdField> kService[] = {
        {"metadata", &LatencyBreakdown::metadata},
        {"icnIntra", &LatencyBreakdown::icnIntra},
        {"icnInter", &LatencyBreakdown::icnInter},
        {"dramCache", &LatencyBreakdown::dramCache},
        {"extMem", &LatencyBreakdown::extMem},
    };
    for (const auto& [name, field] : kService) {
        out.emplace_back(std::string("serviceCycles.") + name,
                         [&cache, field = field](StreamId sid) {
                             const LatencyBreakdown bd = sid == kNoStream
                                 ? cache.nonStreamBreakdown()
                                 : cache.streamBreakdown(sid);
                             return double(bd.*field);
                         });
    }
    out.emplace_back("energyNj.icn", [&shards](StreamId sid) {
        double total = 0.0;
        for (const Shard& sh : shards) {
            total += sid == kNoStream ? sh.noc->unattributedEnergyNj()
                                      : sh.noc->streamEnergyNj(sid);
        }
        return total;
    });
    out.emplace_back("energyNj.cxlLink", [&shards](StreamId sid) {
        double total = 0.0;
        for (const Shard& sh : shards) {
            total += sid == kNoStream ? sh.ext->unattributedLinkEnergyNj()
                                      : sh.ext->streamLinkEnergyNj(sid);
        }
        return total;
    });
    out.emplace_back("energyNj.extDram", [&shards](StreamId sid) {
        double total = 0.0;
        for (const Shard& sh : shards) {
            total += sid == kNoStream ? sh.ext->unattributedDramEnergyNj()
                                      : sh.ext->streamDramEnergyNj(sid);
        }
        return total;
    });
    out.emplace_back("energyNj.dramCache", [&cache](StreamId sid) {
        return sid == kNoStream ? cache.nonStreamDramCacheEnergyNj()
                                : cache.streamDramCacheEnergyNj(sid);
    });
    out.emplace_back("energyNj.sram", [&cache](StreamId sid) {
        return sid == kNoStream ? cache.nonStreamSramEnergyNj()
                                : cache.streamSramEnergyNj(sid);
    });
    return out;
}

/** Per-tenant serving counters, summed over cores: (suffix, field). */
using TenantField = std::uint64_t TenantServingStats::*;
const std::pair<const char*, TenantField> kTenantCounters[] = {
    {"arrivals", &TenantServingStats::arrivals},
    {"started", &TenantServingStats::started},
    {"retired", &TenantServingStats::retired},
    {"sloViolations", &TenantServingStats::sloViolations},
};

/** Static per-tenant facts: (suffix, getter). */
const std::pair<const char*, double (*)(const TenantSpec&)> kTenantFacts[] = {
    {"sloCycles",
     [](const TenantSpec& t) { return static_cast<double>(t.sloCycles); }},
    {"reserved", [](const TenantSpec& t) { return t.reserved ? 1.0 : 0.0; }},
};

/** One tenant's `field`, summed over every core's serving generator. */
double
tenantSum(const std::vector<const ServingGenerator*>& gens, std::size_t t,
          TenantField field)
{
    std::uint64_t total = 0;
    for (const ServingGenerator* g : gens) {
        total += g->tenantStats(t).*field;
    }
    return static_cast<double>(total);
}

} // namespace

NdpSystem::NdpSystem(const SystemConfig& config, PolicyKind policy)
    : cfg_(config), policy_(policy)
{
    cfg_.finalize();
    cfg_.cache.cachelineMode = isCachelinePolicy(policy);
}

std::uint64_t
NdpSystem::configHash(const Workload& workload) const
{
    // Canonical little-endian encoding of every field that shapes the
    // simulated trajectory. Extending any param struct requires adding
    // the new field here (stale checkpoints then fail the hash check,
    // which is the safe direction).
    ckpt::Writer w;
    w.u32(cfg_.stacksX);
    w.u32(cfg_.stacksY);
    w.u32(cfg_.unitsX);
    w.u32(cfg_.unitsY);
    w.u64(cfg_.coreFreqMhz);
    w.u64(cfg_.core.l1HitCycles);
    w.u64(cfg_.core.l1dCapacityBytes);
    w.u32(cfg_.core.l1dWays);
    w.u32(cfg_.core.lineBytes);
    w.u32(cfg_.core.mshrs);
    w.u32(static_cast<std::uint32_t>(cfg_.memType));
    // Backend identity per memory role: a checkpoint taken under one
    // backend (or tuning) must not resume under another.
    cfg_.unitMemBackend().hashInto(w);
    cfg_.extMemBackend().hashInto(w);
    w.u64(cfg_.unitCacheBytes);
    const StreamCacheParams& sc = cfg_.cache;
    w.u32(sc.affineBlockBytes);
    w.u64(sc.affineCapBytesPerUnit);
    w.u32(sc.affineWays);
    w.u32(sc.indirectWays);
    w.b(sc.indirectWayPrediction);
    w.u64(sc.ataCycles);
    w.u32(sc.slbEntries);
    w.u64(sc.slbHitCycles);
    w.u64(sc.slbMissCycles);
    w.u64(sc.unitHandlerCycles);
    w.u64(sc.writeExceptionCycles);
    w.u32(sc.reqBytes);
    w.u32(sc.rspBytes);
    w.d(sc.slbPjPerLookup);
    w.d(sc.ataPjPerLookup);
    w.u32(sc.samplersPerUnit);
    w.u32(sc.sampler.kSets);
    w.u32(sc.sampler.numCapacities);
    w.u64(sc.sampler.minCapacityBytes);
    w.u64(sc.sampler.maxCapacityBytes);
    w.u32(static_cast<std::uint32_t>(sc.remapMode));
    w.b(sc.cachelineMode);
    w.u64(sc.metadataCacheBytes);
    w.u32(sc.metadataGranuleBytes);
    w.u32(sc.metadataCacheWays);
    w.u64(sc.metadataHitCycles);
    w.u64(cfg_.noc.intraHopCycles);
    w.u64(cfg_.noc.interHopCycles);
    w.d(cfg_.noc.interLinkBytesPerCycle);
    w.d(cfg_.noc.intraPjPerBit);
    w.d(cfg_.noc.interPjPerBit);
    w.u64(cfg_.cxl.linkLatencyCycles);
    w.d(cfg_.cxl.linkBytesPerCycle);
    w.d(cfg_.cxl.pjPerBit);
    w.u64(cfg_.runtime.epochCycles);
    w.u32(static_cast<std::uint32_t>(cfg_.runtime.method));
    w.u64(cfg_.runtime.partialUntilCycles);
    w.u32(cfg_.runtime.samplersPerUnit);
    w.u64(cfg_.runtime.minSamplerAccesses);
    w.b(cfg_.runtime.solverWarmStart);
    w.u64(cfg_.runtime.solverBudgetIters);
    w.u64(cfg_.runtime.solverBudgetMicros);
    w.b(cfg_.allowReplication);
    w.u64(cfg_.faults.seed);
    w.d(cfg_.faults.cxlTransientProb);
    w.d(cfg_.faults.cxlPoisonProb);
    w.d(cfg_.faults.dramBitProb);
    w.u64(cfg_.faults.unitFailures.size());
    for (const UnitFailure& f : cfg_.faults.unitFailures) {
        w.u32(f.unit);
        w.u64(f.at);
    }
    w.u32(cfg_.faults.maxLinkRetries);
    w.u64(cfg_.faults.retryBackoffCycles);
    w.u64(cfg_.faults.retryBackoffCapCycles);
    w.u64(cfg_.faults.poisonPenaltyCycles);
    w.d(cfg_.staticWattsPerUnit);
    w.d(cfg_.staticWattsExt);
    w.u32(static_cast<std::uint32_t>(policy_));
    w.str(workload.name());
    w.u32(workload.params().numCores);
    w.u64(workload.params().footprintBytes);
    w.u64(workload.params().accessesPerCore);
    w.u64(workload.params().seed);
    // Workload-specific identity (e.g. the full serving tenant config).
    workload.hashExtra(w);
    // Telemetry state travels inside the image, so its collection shape
    // is part of the identity (its output paths are not).
    w.b(telemetry_ != nullptr);
    if (telemetry_ != nullptr) {
        const TelemetryConfig& tc = telemetry_->config();
        w.u64(tc.packetSampleEvery);
        w.u64(tc.ringCapacity);
        w.d(tc.latencyHistMax);
        w.u64(tc.latencyHistBuckets);
        w.b(tc.traceRequests);
        w.u64(tc.traceSlowK);
        w.u64(tc.traceUniformK);
        w.u64(tc.traceSeed);
    }
    return ckpt::fnv1a(w.bytes());
}

void
NdpSystem::addHeartbeatPath(const std::string& path)
{
    if (path.empty()
        || std::find(heartbeatPaths_.begin(), heartbeatPaths_.end(), path)
            != heartbeatPaths_.end()) {
        return;
    }
    heartbeatPaths_.push_back(path);
}

bool
NdpSystem::setResume(const std::string& path, const Workload& workload,
                     std::string* error)
{
    ckpt::CheckpointHeader header;
    if (!ckpt::loadCheckpoint(path, configHash(workload), &header,
                              &resumePayload_, error)) {
        return false;
    }
    resume_ = true;
    resumeEpoch_ = header.epoch;
    return true;
}

RunResult
NdpSystem::run(const Workload& workload)
{
    NDP_ASSERT(!used_, "NdpSystem is single-use; construct a fresh one");
    used_ = true;
    NDP_ASSERT(workload.prepared(), "workload not prepared");
    NDP_ASSERT(workload.params().numCores == cfg_.numUnits(),
               "workload cores (", workload.params().numCores,
               ") != NDP units (", cfg_.numUnits(), ")");

    // --- construct the machine ---
    StreamTable table;
    workload.registerStreams(table);

    MeshTopology topo(cfg_.stacksX, cfg_.stacksY, cfg_.unitsX, cfg_.unitsY);
    // The prototype NoC/ext models define the topology and the remap
    // table's distance calculations; shard-private clones below carry the
    // actual traffic.
    NocModel noc(topo, cfg_.noc);
    ExtendedMemory ext(cfg_.cxl, cfg_.extMemBackend(), cfg_.coreFreqMhz);
    StreamCacheController cache(cfg_.cache, table, noc, ext,
                                cfg_.unitMemBackend(), cfg_.unitCacheBytes,
                                cfg_.coreFreqMhz);
    NdpRuntime runtime(cfg_.runtime, cache,
                       makeConfigurator(policy_, cfg_, cache, noc));

    // Master injector: owns the scheduled-failure timeline (fired at
    // barriers). Each shard gets a private injector with a derived seed
    // for the per-access Bernoulli classes.
    std::unique_ptr<FaultInjector> fault;
    if (cfg_.faults.anyFaults()) {
        for (const UnitFailure& f : cfg_.faults.unitFailures) {
            NDP_ASSERT(f.unit < cfg_.numUnits(),
                       "scheduled failure of nonexistent unit ", f.unit);
        }
        fault = std::make_unique<FaultInjector>(cfg_.faults);
    }

    // --- shards: one per stack, fair share of the global bandwidth ---
    const std::uint32_t numShards = topo.numStacks();
    NocParams shardNoc = cfg_.noc;
    shardNoc.interLinkBytesPerCycle /= numShards;
    CxlParams shardCxl = cfg_.cxl;
    shardCxl.linkBytesPerCycle /= numShards;
    MemBackendConfig shardExtDram = cfg_.extMemBackend();
    shardExtDram.timing.busBytesPerCycle /= numShards;

    std::vector<Shard> shards(numShards);
    std::vector<StreamCacheController::ShardResources> resources(numShards);
    for (std::uint32_t s = 0; s < numShards; ++s) {
        shards[s].noc = std::make_unique<NocModel>(topo, shardNoc);
        shards[s].ext = std::make_unique<ExtendedMemory>(
            shardCxl, shardExtDram, cfg_.coreFreqMhz);
        if (fault != nullptr) {
            FaultParams fp = cfg_.faults;
            fp.unitFailures.clear(); // the master owns the schedule
            fp.seed = mix64(cfg_.faults.seed + s + 1);
            shards[s].fault = std::make_unique<FaultInjector>(fp);
            shards[s].ext->setFaultInjector(shards[s].fault.get());
        }
        resources[s] = {shards[s].noc.get(), shards[s].ext.get(),
                        shards[s].fault.get()};
    }
    cache.enableSharding(resources);

    const std::uint32_t n = cfg_.numUnits();
    std::vector<InOrderCore> cores;
    cores.reserve(n);
    std::vector<std::unique_ptr<AccessGenerator>> gens;
    gens.reserve(n);
    for (CoreId c = 0; c < n; ++c) {
        cores.emplace_back(c, cfg_.core, cache);
        gens.push_back(workload.makeGenerator(c));
    }

    // --- multi-tenant serving: QoS plumbing and SLO aggregation ---
    const auto* servingWl = dynamic_cast<const ServingWorkload*>(&workload);
    std::vector<const ServingGenerator*> servingGens;
    /** Machine-wide per-tenant latency histograms (stable addresses for
     *  the metric registry; refreshed from the per-core histograms at
     *  every epoch sample and at the end of the run). */
    std::vector<Histogram> tenantLatency;
    if (servingWl != nullptr) {
        for (const auto& g : gens) {
            const auto* sg = dynamic_cast<const ServingGenerator*>(g.get());
            NDP_ASSERT(sg != nullptr,
                       "serving workload built a non-serving generator");
            servingGens.push_back(sg);
        }
        const std::vector<TenantSpec>& tenants =
            servingWl->serving().tenants;
        tenantLatency.reserve(tenants.size());
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            tenantLatency.push_back(servingGens[0]->tenantStats(t).latency);
        }
        // Reserved carve-outs: percent of a unit's rows, attached to
        // every stream of the tenant so Algorithm 1 can enforce the
        // per-class capacity constraint.
        std::vector<StreamQos> qos;
        for (const StreamConfig& scfg : table.all()) {
            const std::uint32_t tn = servingWl->streamTenant(scfg.sid);
            const TenantSpec& spec = tenants[tn];
            StreamQos q;
            q.sid = scfg.sid;
            q.tenant = tn;
            q.reserved = spec.reserved;
            q.reservedRowsPerUnit = spec.reserved
                ? static_cast<std::uint32_t>(
                      static_cast<std::uint64_t>(cache.rowsPerUnit())
                      * spec.reservePct / 100)
                : 0;
            qos.push_back(q);
        }
        runtime.setStreamQos(qos);
    }
    const auto refreshTenantLatency = [&]() {
        for (std::size_t t = 0; t < tenantLatency.size(); ++t) {
            tenantLatency[t] = servingGens[0]->tenantStats(t).latency;
            for (std::size_t c = 1; c < servingGens.size(); ++c) {
                mergeHistogram(&tenantLatency[t],
                               servingGens[c]->tenantStats(t).latency);
            }
        }
    };
    // A core leaves the ready heap for good when its generator is
    // exhausted; tracked per core (bytes, not vector<bool> bits: shard
    // threads write their own cores' entries concurrently) so a
    // checkpoint can record which cores are still running and resume
    // can rebuild the heaps. Heaps are filled after the resume decision.
    std::vector<std::uint8_t> alive(n, 1);

    const StreamSeries perStream = streamSeries(cores, shards, cache);
    // Name prefix of each per-stream slot: every stream, then "none".
    std::vector<std::pair<std::string, StreamId>> streamSlots;
    for (const StreamConfig& scfg : table.all()) {
        streamSlots.emplace_back("stream." + std::to_string(scfg.sid),
                                 scfg.sid);
    }
    streamSlots.emplace_back("stream.none", kNoStream);

    // --- telemetry: register every component's series and hand the
    // cores their shard-private sample buffers. Registration must finish
    // before the first sample; shard-clone NoC/CXL models register the
    // same names and the registry sums them into one series.
    if (telemetry_ != nullptr) {
        MetricRegistry& mr = telemetry_->metrics();
        cache.registerMetrics(mr);
        for (auto& core : cores) {
            core.registerMetrics(mr);
            // Same series under a per-stack prefix: duplicate-name
            // summing turns these into per-stack CPI stacks.
            core.registerCpiMetrics(
                mr, "stack." + std::to_string(topo.stackOf(core.id())));
        }
        for (auto& sh : shards) {
            sh.noc->registerMetrics(mr);
            sh.ext->registerMetrics(mr);
        }

        // Per-stream cost attribution series (ndpext_report topdown).
        for (const auto& [base, sid] : streamSlots) {
            for (const auto& [suffix, get] : perStream) {
                mr.registerCounter(base + "." + suffix,
                                   [g = get, s = sid] { return g(s); });
            }
        }
        if (servingWl != nullptr) {
            const std::vector<TenantSpec>& tenants =
                servingWl->serving().tenants;
            for (std::size_t t = 0; t < tenants.size(); ++t) {
                const std::string base = "tenant." + tenants[t].name + ".";
                for (const auto& [suffix, field] : kTenantCounters) {
                    mr.registerCounter(
                        base + suffix, [&servingGens, t, field = field] {
                            return tenantSum(servingGens, t, field);
                        });
                }
                mr.registerHistogram(base + "latency", &tenantLatency[t]);
                // Static per-tenant facts, exported so `ndpext_report
                // slo` can print targets without the --stats-json file.
                for (const auto& [suffix, get] : kTenantFacts) {
                    mr.registerGauge(base + suffix,
                                     [v = get(tenants[t])] { return v; });
                }
            }
        }
        runtime.registerMetrics(mr);
        runtime.setTelemetry(telemetry_);
        telemetry_->initPacketSampling(n);
        for (CoreId c = 0; c < n; ++c) {
            cores[c].setTelemetrySink(telemetry_->packetBuffer(c));
        }
        // End-to-end request tracing: serving runs only (non-serving
        // runs have no request boundaries; their per-packet visibility
        // comes from the existing packet sampler).
        if (servingWl != nullptr) {
            std::vector<RequestTraceCollector::TenantMeta> metas;
            for (const TenantSpec& spec : servingWl->serving().tenants) {
                metas.push_back({spec.name, spec.reserved, spec.sloCycles});
            }
            telemetry_->initRequestTracing(n, std::move(metas));
            for (CoreId c = 0; c < n; ++c) {
                cores[c].setRequestTraceSink(telemetry_->requestBuffer(c));
            }
        }
        for (std::uint32_t s = 0; s < numShards; ++s) {
            std::string tname = "shard";
            tname += std::to_string(s);
            telemetry_->trace().threadName(TraceWriter::kPidShards, s,
                                           tname);
        }
    }

    // --- heartbeat: small advisory status file(s), atomically rewritten
    // at every epoch barrier so `ndpext_report watch` and the supervisor
    // can follow progress/ETA without touching the run. Write-only from
    // the run's perspective, so the wall-clock stamps cannot perturb
    // determinism.
    const auto wallUnixMs = [] {
        return static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
    };
    const std::int64_t hbStartMs = wallUnixMs();
    const Cycles hbStartCycles = resumeEpoch_ * cfg_.runtime.epochCycles;
    const auto writeHeartbeat = [&](std::uint64_t epoch, Cycles cycles,
                                    bool done) {
        if (heartbeatPaths_.empty()) {
            return;
        }
        std::uint64_t acc = 0;
        for (const auto& core : cores) {
            acc += core.accesses();
        }
        std::uint64_t totalHint = 0;
        if (servingWl == nullptr) {
            totalHint =
                static_cast<std::uint64_t>(workload.params().numCores)
                * workload.params().accessesPerCore;
        }
        const Cycles horizon =
            servingWl != nullptr ? servingWl->horizon() : 0;
        for (const std::string& path : heartbeatPaths_) {
            std::string why;
            const bool ok = writeFileAtomic(
                path,
                [&](std::ostream& os) {
                    os << "{\"done\":" << (done ? "true" : "false")
                       << ",\"epoch\":" << epoch
                       << ",\"cycles\":" << cycles << ",\"epochCycles\":"
                       << cfg_.runtime.epochCycles
                       << ",\"horizonCycles\":" << horizon
                       << ",\"accesses\":" << acc
                       << ",\"totalAccessesHint\":" << totalHint
                       << ",\"startCycles\":" << hbStartCycles
                       << ",\"startUnixMs\":" << hbStartMs
                       << ",\"wallUnixMs\":" << wallUnixMs()
                       << ",\"tenants\":[";
                    if (servingWl != nullptr) {
                        const std::vector<TenantSpec>& tenants =
                            servingWl->serving().tenants;
                        for (std::size_t t = 0; t < tenants.size(); ++t) {
                            std::uint64_t retired = 0;
                            std::uint64_t violations = 0;
                            for (const ServingGenerator* g : servingGens) {
                                retired += g->tenantStats(t).retired;
                                violations +=
                                    g->tenantStats(t).sloViolations;
                            }
                            if (t > 0) {
                                os << ",";
                            }
                            os << "{\"name\":"
                               << jsonout::str(tenants[t].name)
                               << ",\"reserved\":"
                               << (tenants[t].reserved ? 1 : 0)
                               << ",\"sloCycles\":" << tenants[t].sloCycles
                               << ",\"retired\":" << retired
                               << ",\"violations\":" << violations << "}";
                        }
                    }
                    os << "]}\n";
                },
                &why);
            if (!ok) {
                warn("cannot write heartbeat file '" + path + "': " + why);
            }
        }
    };

    // --- barrier loop state (checkpointed alongside component state) ---
    Cycles next_epoch = cfg_.runtime.epochCycles;
    Cycles next_failure =
        fault != nullptr ? fault->nextFailureAt() : FaultInjector::kNoFailure;
    Cycles interval_start = 0;
    Cycles epoch_start = 0;
    std::uint64_t epoch_idx = 0;
    /** Epoch barriers crossed, counted whether or not telemetry is
     *  attached (epoch_idx is telemetry-local). Names checkpoints. */
    std::uint64_t completed_epochs = 0;

    // Full-machine snapshot at an epoch barrier: the only point where
    // shards are quiescent and no packet is in flight between
    // components. Section order is the restore order below.
    const auto snapshot = [&]() {
        ckpt::Writer w;
        w.section(0x0515);
        w.u64(completed_epochs);
        w.u64(next_epoch);
        w.u64(interval_start);
        w.u64(epoch_start);
        w.u64(epoch_idx);
        // Stream-table read-only bits: the only mutable stream state
        // (write-to-read-only exceptions clear them mid-run).
        std::vector<bool> read_only;
        read_only.reserve(table.numStreams());
        for (const StreamConfig& scfg : table.all()) {
            read_only.push_back(scfg.readOnly);
        }
        w.vecB(read_only);
        w.u64(alive.size());
        for (const std::uint8_t a : alive) {
            w.u8(a);
        }
        noc.serialize(w);
        ext.serialize(w);
        w.b(fault != nullptr);
        if (fault != nullptr) {
            fault->serialize(w);
        }
        w.u64(shards.size());
        for (const Shard& sh : shards) {
            sh.noc->serialize(w);
            sh.ext->serialize(w);
            if (sh.fault != nullptr) {
                sh.fault->serialize(w);
            }
            w.u64(sh.finish);
            w.u64(sh.steps);
            w.u64(sh.busyUntil);
        }
        cache.serialize(w);
        runtime.serialize(w);
        w.u64(cores.size());
        for (const InOrderCore& core : cores) {
            core.serialize(w);
        }
        // Generator side-state (serving frontend: arrival processes,
        // pending queues, latency records). A no-op for the default
        // count-replayed generators.
        for (CoreId c = 0; c < n; ++c) {
            gens[c]->serializeExtra(w);
        }
        w.b(telemetry_ != nullptr);
        if (telemetry_ != nullptr) {
            telemetry_->serialize(w);
        }
        return w;
    };

    // Mirror of snapshot(). The payload already passed the CRC and the
    // config-hash check, so any structural mismatch here is an internal
    // producer/consumer bug -- asserts, not recoverable errors.
    const auto restore = [&](ckpt::Reader& r) {
        r.section(0x0515);
        completed_epochs = r.u64();
        next_epoch = r.u64();
        interval_start = r.u64();
        epoch_start = r.u64();
        epoch_idx = r.u64();
        const std::vector<bool> read_only = r.vecB();
        NDP_ASSERT(read_only.size() == table.numStreams(),
                   "checkpoint stream-count mismatch");
        for (std::size_t i = 0; i < read_only.size(); ++i) {
            if (!read_only[i] && table.all()[i].readOnly) {
                // Replay the write-to-read-only exception's table effect.
                table.markWritten(table.all()[i].sid);
            }
        }
        NDP_ASSERT(r.u64() == alive.size(),
                   "checkpoint core-count mismatch");
        for (std::uint8_t& a : alive) {
            a = r.u8();
        }
        noc.deserialize(r);
        ext.deserialize(r);
        NDP_ASSERT(r.b() == (fault != nullptr),
                   "checkpoint fault-injector presence mismatch");
        if (fault != nullptr) {
            fault->deserialize(r);
        }
        NDP_ASSERT(r.u64() == shards.size(),
                   "checkpoint shard-count mismatch");
        for (Shard& sh : shards) {
            sh.noc->deserialize(r);
            sh.ext->deserialize(r);
            if (sh.fault != nullptr) {
                sh.fault->deserialize(r);
            }
            sh.finish = r.u64();
            sh.steps = r.u64();
            sh.busyUntil = r.u64();
        }
        cache.deserialize(r);
        runtime.deserialize(r);
        NDP_ASSERT(r.u64() == cores.size(),
                   "checkpoint core-count mismatch");
        for (InOrderCore& core : cores) {
            core.deserialize(r);
        }
        for (CoreId c = 0; c < n; ++c) {
            gens[c]->deserializeExtra(r);
        }
        NDP_ASSERT(r.b() == (telemetry_ != nullptr),
                   "checkpoint telemetry presence mismatch");
        if (telemetry_ != nullptr) {
            telemetry_->deserialize(r);
        }
        NDP_ASSERT(r.atEnd(), "checkpoint payload has trailing state");

        // Fast-forward the (freshly constructed) generators: replaying
        // the consumed accesses walks their RNG/index state to exactly
        // where the snapshot left off (generators are deterministic and
        // consume nothing once exhausted). Self-contained generators
        // (serving) restored their full state -- including their
        // sub-generators -- in deserializeExtra above.
        for (CoreId c = 0; c < n; ++c) {
            if (gens[c]->checkpointSelfContained()) {
                continue;
            }
            Access dummy;
            for (std::uint64_t i = 0; i < cores[c].accesses(); ++i) {
                const bool ok = gens[c]->next(dummy);
                NDP_ASSERT(ok, "generator exhausted during resume replay");
            }
        }
    };

    if (resume_) {
        ckpt::Reader r(resumePayload_);
        restore(r);
        // Derived, not stored: the restored master injector knows the
        // remaining failure schedule.
        next_failure = fault != nullptr ? fault->nextFailureAt()
                                        : FaultInjector::kNoFailure;
    } else {
        runtime.start();
    }
    for (CoreId c = 0; c < n; ++c) {
        if (alive[c] != 0) {
            shards[topo.stackOf(c)].ready.emplace(cores[c].now(), c);
        }
    }
    const std::uint64_t ckpt_hash =
        ckptEvery_ != 0 ? configHash(workload) : 0;

    // --- barrier loop: shards advance in parallel to the next global
    // event (epoch boundary or scheduled failure); the runtime acts at
    // the barrier, then the interval repeats. The decomposition is fixed
    // per stack, so any --threads value produces identical results.
    const std::uint32_t threads = std::min<std::uint32_t>(
        std::max<std::uint32_t>(cfg_.numThreads, 1), numShards);
    ShardedExecutor exec(threads);

    const auto engine_start = std::chrono::steady_clock::now();
    // First heartbeat before any epoch completes, so staleness monitors
    // have a baseline mtime from the moment the engine starts.
    writeHeartbeat(completed_epochs,
                   completed_epochs * cfg_.runtime.epochCycles, false);
    for (;;) {
        const Cycles sync = std::min(next_epoch, next_failure);
        exec.forEachShard(numShards, [&](std::uint32_t s) {
            Shard& sh = shards[s];
            while (!sh.ready.empty() && sh.ready.top().first < sync) {
                const CoreId c = sh.ready.top().second;
                sh.ready.pop();
                ++sh.steps;
                if (cores[c].step(*gens[c])) {
                    sh.ready.emplace(cores[c].now(), c);
                } else {
                    alive[c] = 0;
                    sh.finish = std::max(sh.finish, cores[c].now());
                }
                sh.busyUntil = std::max(sh.busyUntil, cores[c].now());
            }
        });
        cache.applyDeferredWriteExceptions();

        bool active = false;
        for (const Shard& sh : shards) {
            active = active || !sh.ready.empty();
        }

        // Barrier-side telemetry: drain shard-private packet samples in
        // core-id order and split each shard's interval into execute /
        // barrier-wait (simulated-time imbalance, thread-count blind).
        if (telemetry_ != nullptr) {
            telemetry_->drainPacketSamples();
            telemetry_->drainRequestTraces();
            TraceWriter& tw = telemetry_->trace();
            for (std::uint32_t s = 0; s < numShards; ++s) {
                const Cycles busy = std::max(
                    interval_start, std::min(shards[s].busyUntil, sync));
                if (busy > interval_start) {
                    tw.completeSpan("shard", "execute",
                                    TraceWriter::kPidShards, s,
                                    interval_start, busy - interval_start);
                }
                if (active && sync > busy) {
                    tw.completeSpan("shard", "barrier_wait",
                                    TraceWriter::kPidShards, s, busy,
                                    sync - busy);
                }
            }
            interval_start = sync;
        }

        if (!active) {
            break;
        }
        if (next_failure <= next_epoch) {
            // Failures fire before a coinciding epoch boundary.
            runtime.onUnitFailures(fault->popFailuresUpTo(next_failure),
                                   next_failure);
            next_failure = fault->nextFailureAt();
        } else {
            if (telemetry_ != nullptr) {
                // Snapshot before onEpochEnd clears the sampler counters.
                if (servingWl != nullptr) {
                    refreshTenantLatency();
                }
                telemetry_->sampleEpoch(epoch_idx, next_epoch);
                telemetry_->finalizeRequestEpoch(epoch_idx);
                std::string args = "{\"epoch\":";
                args += std::to_string(epoch_idx);
                args += '}';
                telemetry_->trace().completeSpan(
                    "epoch", "epoch", TraceWriter::kPidRuntime, 0,
                    epoch_start, next_epoch - epoch_start, args);
                epoch_start = next_epoch;
                ++epoch_idx;
            }
            // Serving churn feeds the incremental solver's delta set:
            // streams of any tenant whose activity window opened or
            // closed during the elapsed epoch are re-solved from
            // scratch even if their demand fingerprints look stable.
            if (servingWl != nullptr && cfg_.runtime.solverWarmStart) {
                const Cycles lo =
                    next_epoch > cfg_.runtime.epochCycles
                    ? next_epoch - cfg_.runtime.epochCycles
                    : 0;
                const std::size_t ntenants =
                    servingWl->serving().tenants.size();
                std::vector<bool> churned(ntenants, false);
                bool any = false;
                for (std::size_t t = 0; t < ntenants; ++t) {
                    const Cycles st = servingWl->activeStart(t);
                    const Cycles en = servingWl->activeEnd(t);
                    if ((st > lo && st <= next_epoch)
                        || (en > lo && en <= next_epoch)) {
                        churned[t] = true;
                        any = true;
                    }
                }
                if (any) {
                    std::vector<StreamId> sids;
                    for (const StreamConfig& scfg : table.all()) {
                        if (churned[servingWl->streamTenant(
                                scfg.sid)]) {
                            sids.push_back(scfg.sid);
                        }
                    }
                    runtime.noteStreamChurn(sids);
                }
            }
            runtime.onEpochEnd(next_epoch);
            next_epoch += cfg_.runtime.epochCycles;
            ++completed_epochs;
            if (ckptEvery_ != 0 && completed_epochs % ckptEvery_ == 0) {
                if (telemetry_ != nullptr) {
                    // Bound image growth: move rendered telemetry to the
                    // on-disk .part side files so the snapshot only
                    // carries un-flushed state (DESIGN.md §6).
                    std::string ferr;
                    if (!telemetry_->flushToDisk(&ferr)) {
                        warn(ferr);
                    }
                }
                const ckpt::Writer w = snapshot();
                const std::string path = ckptPrefix_ + "."
                    + std::to_string(completed_epochs) + ".ckpt";
                std::string err;
                if (!ckpt::saveCheckpoint(path, ckpt_hash,
                                          completed_epochs, w.bytes(),
                                          &err)) {
                    // The run itself is unaffected; keep going so a
                    // transient disk problem does not kill hours of
                    // simulation (older checkpoints remain usable).
                    warn(err);
                }
            }
            writeHeartbeat(completed_epochs,
                           next_epoch - cfg_.runtime.epochCycles, false);
        }
    }
    const auto engine_end = std::chrono::steady_clock::now();
    Cycles finish = 0;
    for (const Shard& sh : shards) {
        finish = std::max(finish, sh.finish);
    }
    // Final partial epoch: one last metric sample + epoch span.
    if (telemetry_ != nullptr) {
        if (servingWl != nullptr) {
            refreshTenantLatency();
        }
        telemetry_->sampleEpoch(epoch_idx, finish);
        telemetry_->finalizeRequestEpoch(epoch_idx);
        if (finish > epoch_start) {
            std::string args = "{\"epoch\":";
            args += std::to_string(epoch_idx);
            args += '}';
            telemetry_->trace().completeSpan(
                "epoch", "epoch", TraceWriter::kPidRuntime, 0, epoch_start,
                finish - epoch_start, args);
        }
    }
    writeHeartbeat(completed_epochs, finish, true);

    // --- collect results (sums over shard-private models) ---
    RunResult res;
    res.workload = workload.name();
    res.policy = policyName(policy_);
    res.cycles = finish;
    res.bd = cache.breakdown();
    res.missRate = cache.missRate();
    res.metadataHitRate = cache.metadataHitRate();
    res.writeExceptions = cache.writeExceptions();
    res.invalidatedRows = cache.invalidatedRows();
    res.survivedRows = cache.survivedRows();
    res.reconfigurations = runtime.reconfigurations();
    res.slbMisses = cache.slbMissTotal();
    for (const Shard& sh : shards) {
        res.degraded.linkRetries += sh.ext->linkRetries();
        res.degraded.retriesExhausted += sh.ext->retriesExhausted();
        res.degraded.poisonedReads += sh.ext->poisonedReads();
    }
    res.degraded.poisonEscalations = cache.poisonEscalations();
    res.degraded.failedUnitRedirects = cache.failedUnitRedirects();
    res.degraded.dramFaultRefetches = cache.dramFaultRefetches();
    res.degraded.failedUnits = runtime.failedUnits();
    res.degraded.emergencyReconfigs = runtime.emergencyReconfigurations();
    if (fault != nullptr
        && fault->firstFailureAt() != FaultInjector::kNoFailure
        && finish > fault->firstFailureAt()) {
        res.degraded.cyclesDegraded = finish - fault->firstFailureAt();
    }
    for (const auto& core : cores) {
        res.accesses += core.accesses();
        res.l1Hits += core.l1Hits();
        core.report(res.stats, "core" + std::to_string(core.id()));
    }

    // Machine-wide CPI stack (fixed-order sums over cores, so the values
    // are bit-identical for any --threads value; ndpext_report topdown
    // checks the bucket-sum invariant against cores.memStallCycles).
    {
        CoreStallBreakdown stall;
        Cycles compute = 0;
        Cycles l1 = 0;
        Cycles mem_stall = 0;
        for (const auto& core : cores) {
            const CoreStallBreakdown& s = core.stallBreakdown();
            stall.metadata += s.metadata;
            stall.icnIntra += s.icnIntra;
            stall.icnInter += s.icnInter;
            stall.dramCache += s.dramCache;
            stall.extMem += s.extMem;
            stall.mshrQueue += s.mshrQueue;
            compute += core.computeCycles();
            l1 += core.l1Cycles();
            mem_stall += core.memStallCycles();
        }
        res.stats.set("cores.computeCycles", static_cast<double>(compute));
        res.stats.set("cores.l1Cycles", static_cast<double>(l1));
        res.stats.set("cores.memStallCycles",
                      static_cast<double>(mem_stall));
        stall.report(res.stats, "cores.stall");
    }

    // Engine throughput telemetry. Event and pool counters are
    // deterministic (thread-count blind) and gate nothing; the wall
    // clock is host-dependent and advisory (the "Micros" suffix excludes
    // it from bit-identity checks).
    {
        res.engineWallMicros = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                engine_end - engine_start)
                .count());
        std::uint64_t steps = 0;
        for (const Shard& sh : shards) {
            steps += sh.steps;
        }
        std::uint64_t pool_high = cache.packetPoolHighWater();
        std::uint64_t pool_alloc = cache.packetPoolAllocated();
        for (const auto& core : cores) {
            pool_high += core.packetPool().highWater();
            pool_alloc += core.packetPool().allocated();
        }
        res.stats.set("engine.eventsFired", static_cast<double>(steps));
        res.stats.set("engine.packetPool.highWater",
                      static_cast<double>(pool_high));
        res.stats.set("engine.packetPool.allocated",
                      static_cast<double>(pool_alloc));
        res.stats.set("engine.wallMicros",
                      static_cast<double>(res.engineWallMicros));
    }

    // Per-stream cost attribution (the telemetry series' final values).
    for (const auto& [base, sid] : streamSlots) {
        for (const auto& [suffix, get] : perStream) {
            res.stats.set(base + "." + suffix, get(sid));
        }
    }

    // Per-tenant SLO telemetry (ndpext_report slo / --stats-json).
    if (servingWl != nullptr) {
        refreshTenantLatency();
        const std::vector<TenantSpec>& tenants =
            servingWl->serving().tenants;
        res.stats.set("serving.tenants",
                      static_cast<double>(tenants.size()));
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const std::string base = "tenant." + tenants[t].name + ".";
            for (const auto& [suffix, field] : kTenantCounters) {
                res.stats.set(base + suffix,
                              tenantSum(servingGens, t, field));
            }
            for (const auto& [suffix, get] : kTenantFacts) {
                res.stats.set(base + suffix, get(tenants[t]));
            }
            const Histogram& lat = tenantLatency[t];
            res.stats.set(base + "latencyMean", lat.mean());
            res.stats.set(base + "latencyP50", lat.percentile(0.5));
            res.stats.set(base + "latencyP99", lat.percentile(0.99));
            res.stats.set(base + "latencyMax", lat.maxValue());
            const double retired =
                tenantSum(servingGens, t, &TenantServingStats::retired);
            const double violations = tenantSum(
                servingGens, t, &TenantServingStats::sloViolations);
            res.stats.set(base + "sloAttainment",
                          retired == 0.0 ? 1.0 : 1.0 - violations / retired);
        }
    }

    const double seconds = static_cast<double>(finish)
        / (static_cast<double>(cfg_.coreFreqMhz) * 1e6);
    res.energy.staticNj = (cfg_.staticWattsPerUnit * n
                           + cfg_.staticWattsExt)
        * seconds * 1e9;
    res.energy.ndpDramNj = cache.dramCacheEnergyNj();
    res.energy.sramNj = cache.sramEnergyNj();
    for (const Shard& sh : shards) {
        res.energy.extDramNj += sh.ext->dramEnergyNj();
        res.energy.cxlLinkNj += sh.ext->linkEnergyNj();
        res.energy.icnNj += sh.noc->energyNj();
    }

    cache.report(res.stats, "cache");
    for (const Shard& sh : shards) {
        // report() uses add(), so shard instances accumulate.
        sh.noc->report(res.stats, "noc");
        sh.ext->report(res.stats, "ext");
    }
    runtime.report(res.stats, "runtime");
    if (fault != nullptr) {
        fault->report(res.stats, "fault");
        for (const Shard& sh : shards) {
            sh.fault->report(res.stats, "fault");
        }
        res.stats.set("degraded.cycles",
                      static_cast<double>(res.degraded.cyclesDegraded));
    }
    res.stats.set("cycles", static_cast<double>(finish));
    return res;
}

} // namespace ndpext
