#include "system/ndp_system.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/nuca_policies.h"
#include "common/atomic_file.h"
#include "common/logging.h"
#include "cpu/ready_heap.h"
#include "runtime/static_config.h"
#include "serving/serving_workload.h"
#include "sim/checkpoint.h"
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
 * Declare the per-stream cost attribution counters (ndpext_report
 * topdown): stream.<sid>.<series> for every stream, then
 * stream.none.<series>. Every getter takes kNoStream for the "none"
 * row, which keeps each series summing to the machine total.
 */
void
streamCounters(Counters& out, const StreamTable& table,
               const std::vector<InOrderCore>& cores,
               const StreamCacheController& cache, const NocModel& noc,
               const ExtendedMemory& ext)
{
    using StreamGetter = std::function<double(StreamId sid)>;
    std::vector<std::pair<std::string, StreamGetter>> series;
    series.emplace_back("stallCycles", [&cores](StreamId sid) {
        Cycles total = 0;
        for (const auto& core : cores) {
            total += core.streamStallCycles(sid);
        }
        return double(total);
    });
    for (const ServiceStage& stage : kServiceStages) {
        series.emplace_back(std::string("serviceCycles.") + stage.name,
                            [&cache, field = stage.field](StreamId sid) {
                                return double(
                                    cache.streamBreakdown(sid).*field);
                            });
    }
    series.emplace_back("energyNj.icn", [&noc](StreamId sid) {
        return noc.streamEnergyNj(sid);
    });
    series.emplace_back("energyNj.cxlLink", [&ext](StreamId sid) {
        return ext.streamLinkEnergyNj(sid);
    });
    series.emplace_back("energyNj.extDram", [&ext](StreamId sid) {
        return ext.streamDramEnergyNj(sid);
    });
    series.emplace_back("energyNj.dramCache", [&cache](StreamId sid) {
        return cache.streamDramCacheEnergyNj(sid);
    });
    series.emplace_back("energyNj.sram", [&cache](StreamId sid) {
        return cache.streamSramEnergyNj(sid);
    });
    std::vector<std::pair<std::string, StreamId>> slots;
    for (const StreamConfig& scfg : table.all()) {
        slots.emplace_back("stream." + std::to_string(scfg.sid), scfg.sid);
    }
    slots.emplace_back("stream.none", kNoStream);
    for (const auto& [base, sid] : slots) {
        const CounterScope add{out, base};
        for (const auto& [suffix, get] : series) {
            add(suffix, [g = get, s = sid] { return g(s); });
        }
    }
}

/** Per-tenant serving counters, summed over cores: (suffix, field). */
using TenantField = std::uint64_t TenantServingStats::*;
const std::pair<const char*, TenantField> kTenantCounters[] = {
    {"arrivals", &TenantServingStats::arrivals},
    {"started", &TenantServingStats::started},
    {"retired", &TenantServingStats::retired},
    {"sloViolations", &TenantServingStats::sloViolations},
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

/**
 * Declare tenant.<name>.<counter> for every serving tenant: the four
 * serving counters summed over cores, then the static facts sloCycles
 * and reserved (so `ndpext_report slo` can print targets without the
 * --stats-json file).
 */
void
tenantCounters(Counters& out, const std::vector<TenantSpec>& tenants,
               const std::vector<const ServingGenerator*>& gens)
{
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const CounterScope add{out, "tenant." + tenants[t].name};
        for (const auto& [suffix, field] : kTenantCounters) {
            add(suffix, [&gens, t, field = field] {
                return tenantSum(gens, t, field);
            });
        }
        const double slo = static_cast<double>(tenants[t].sloCycles);
        const double reserved = tenants[t].reserved ? 1.0 : 0.0;
        add("sloCycles", [slo] { return slo; });
        add("reserved", [reserved] { return reserved; });
    }
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
    w.u64(cfg_.runtime.minSamplerAccesses);
    w.b(cfg_.runtime.solverWarmStart);
    w.u64(cfg_.runtime.solverBudgetIters);
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
        w.b(tc.traceRequests);
        w.u64(tc.traceSlowK);
        w.u64(tc.traceUniformK);
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
    NocModel noc(topo, cfg_.noc);
    ExtendedMemory ext(cfg_.cxl, cfg_.extMemBackend(), cfg_.coreFreqMhz);
    StreamCacheController cache(cfg_.cache, table, noc, ext,
                                cfg_.unitMemBackend(), cfg_.unitCacheBytes,
                                cfg_.coreFreqMhz);
    NdpRuntime runtime(cfg_.runtime, cache,
                       makeConfigurator(policy_, cfg_, cache, noc));

    // One injector owns the failure schedule (fired at barriers) and the
    // per-access Bernoulli fault classes.
    std::unique_ptr<FaultInjector> fault;
    if (cfg_.faults.anyFaults()) {
        for (const UnitFailure& f : cfg_.faults.unitFailures) {
            NDP_ASSERT(f.unit < cfg_.numUnits(),
                       "scheduled failure of nonexistent unit ", f.unit);
        }
        fault = std::make_unique<FaultInjector>(cfg_.faults);
        ext.setFaultInjector(fault.get());
        cache.setFaultInjector(fault.get());
    }

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
    // The running cores, stepped in (cycle, core id) order. Filled after
    // the resume decision; a checkpoint records which cores it holds.
    ReadyHeap ready;

    // --- the machine's counters, each declared once. Telemetry samples
    // this list at every epoch barrier and --stats-json takes its final
    // values, so the two outputs cannot drift. Duplicate names sum in
    // list order: every core under "cores" and its "stack.<s>".
    Counters machine;
    cache.counters(machine, "cache");
    for (const auto& core : cores) {
        core.counters(machine, "cores");
        core.counters(machine,
                      "stack." + std::to_string(topo.stackOf(core.id())));
    }
    noc.counters(machine, "noc");
    ext.counters(machine, "ext");
    streamCounters(machine, table, cores, cache, noc, ext);
    if (servingWl != nullptr) {
        tenantCounters(machine, servingWl->serving().tenants, servingGens);
    }
    runtime.counters(machine, "runtime");
    if (fault != nullptr) {
        fault->counters(machine, "fault");
    }

    // --- telemetry: register the machine's counters and the tenant
    // latency histograms, and hand each core its own sample buffers.
    // Registration must finish before the first sample.
    if (telemetry_ != nullptr) {
        MetricRegistry& mr = telemetry_->metrics();
        mr.registerCounters(machine);
        if (servingWl != nullptr) {
            const std::vector<TenantSpec>& tenants =
                servingWl->serving().tenants;
            for (std::size_t t = 0; t < tenants.size(); ++t) {
                mr.registerHistogram("tenant." + tenants[t].name + ".latency",
                                     &tenantLatency[t]);
            }
        }
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

    // --- barrier loop state: the runtime's epoch count is the one
    // record of the barriers crossed; the loop derives its bounds from
    // it, and the injector knows the remaining failure schedule.
    const Cycles epoch_cycles = cfg_.runtime.epochCycles;
    const auto epochStart = [&] {
        return runtime.epochIndex() * epoch_cycles;
    };

    // Full-machine checkpoint pass at an epoch barrier: the only point
    // where no core is mid-step and no packet is in flight between
    // components. On load the payload already passed the CRC and the
    // config-hash check, so any structural mismatch is an internal bug
    // -- asserts, not recoverable errors.
    const auto machineState = [&](ckpt::Archive& ar) {
        ar.section(0x0515);
        // Stream-table read-only bits: the only mutable stream state
        // (write-to-read-only exceptions clear them mid-run).
        ar.expect(table.numStreams(), "checkpoint stream-count mismatch");
        for (std::size_t i = 0; i < table.numStreams(); ++i) {
            const StreamConfig& scfg = table.all()[i];
            bool read_only = scfg.readOnly;
            ar.b(read_only);
            if (ar.loading() && !read_only && scfg.readOnly) {
                // Replay the write-to-read-only exception's table effect.
                table.markWritten(scfg.sid);
            }
        }
        noc.checkpoint(ar);
        ext.checkpoint(ar);
        ar.expectFlag(fault != nullptr,
                      "checkpoint fault-injector presence mismatch");
        if (fault != nullptr) {
            fault->checkpoint(ar);
        }
        cache.checkpoint(ar);
        runtime.checkpoint(ar); // after the cache: reads its unit health
        ar.expect(cores.size(), "checkpoint core-count mismatch");
        for (InOrderCore& core : cores) {
            core.checkpoint(ar);
        }
        ready.checkpoint(ar, cores);
        // Generator side-state (serving frontend: arrival processes,
        // pending queues, latency records). A no-op for the default
        // count-replayed generators.
        for (CoreId c = 0; c < n; ++c) {
            gens[c]->checkpointExtra(ar);
        }
        ar.expectFlag(telemetry_ != nullptr,
                      "checkpoint telemetry presence mismatch");
        if (telemetry_ != nullptr) {
            telemetry_->checkpoint(ar);
        }
        if (!ar.loading()) {
            return;
        }
        // Fast-forward the (freshly constructed) generators: replaying
        // the consumed accesses walks their RNG/index state to exactly
        // where the snapshot left off (generators are deterministic and
        // consume nothing once exhausted). Self-contained generators
        // (serving) restored their full state -- including their
        // sub-generators -- in checkpointExtra above.
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
        ckpt::Archive ar(r);
        machineState(ar);
        NDP_ASSERT(r.atEnd(), "checkpoint payload has trailing state");
    } else {
        runtime.start();
        for (const InOrderCore& core : cores) {
            ready.push(core);
        }
    }
    const std::uint64_t ckpt_hash =
        ckptEvery_ != 0 ? configHash(workload) : 0;
    // One encode buffer for every image. Images of one run are about the
    // same size, so after the first one an image neither grows a buffer
    // by doubling nor leaves the discarded halves resident in the heap.
    ckpt::Writer image;

    // --- barrier loop: the cores advance to the next global event (epoch
    // boundary or scheduled failure); the runtime acts at the barrier,
    // then the interval repeats.
    const auto engine_start = std::chrono::steady_clock::now();
    // First heartbeat before any epoch completes, so staleness monitors
    // have a baseline mtime from the moment the engine starts.
    writeHeartbeat(runtime.epochIndex(), epochStart(), false);
    for (;;) {
        const Cycles next_epoch = epochStart() + epoch_cycles;
        const Cycles next_failure = fault != nullptr
            ? fault->nextFailureAt()
            : FaultInjector::kNoFailure;
        ready.runUntil(std::min(next_epoch, next_failure), cores, gens);

        // Barrier-side telemetry: drain the per-core packet samples and
        // request traces in core-id order.
        if (telemetry_ != nullptr) {
            telemetry_->drainPacketSamples();
            telemetry_->drainRequestTraces();
        }
        if (ready.empty()) {
            break;
        }
        if (next_failure <= next_epoch) {
            // Failures fire before a coinciding epoch boundary.
            runtime.onUnitFailures(fault->popFailuresUpTo(next_failure),
                                   next_failure);
        } else {
            if (telemetry_ != nullptr) {
                // Snapshot before onEpochEnd clears the sampler counters.
                if (servingWl != nullptr) {
                    refreshTenantLatency();
                }
                const std::uint64_t epoch = runtime.epochIndex();
                telemetry_->sampleEpoch(epoch, next_epoch);
                telemetry_->finalizeRequestEpoch(epoch);
                std::string args = "{\"epoch\":";
                args += std::to_string(epoch);
                args += '}';
                telemetry_->trace().completeSpan(
                    "epoch", "epoch", TraceWriter::kPidRuntime, 0,
                    epochStart(), epoch_cycles, args);
            }
            // Serving churn feeds the incremental solver's delta set:
            // streams of any tenant whose activity window opened or
            // closed during the elapsed epoch are re-solved from
            // scratch even if their demand fingerprints look stable.
            if (servingWl != nullptr && cfg_.runtime.solverWarmStart) {
                const Cycles lo = epochStart();
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
            const std::uint64_t completed_epochs = runtime.epochIndex();
            if (ckptEvery_ != 0 && completed_epochs % ckptEvery_ == 0) {
                if (telemetry_ != nullptr) {
                    // Bound image growth: append the rendered telemetry
                    // to its .part side files, so the snapshot carries
                    // only their byte counts (DESIGN.md §6).
                    std::string ferr;
                    if (!telemetry_->flushToDisk(&ferr)) {
                        warn(ferr);
                    }
                }
                image.clear();
                ckpt::Archive ar(image);
                machineState(ar);
                const std::string path = ckptPrefix_ + "."
                    + std::to_string(completed_epochs) + ".ckpt";
                std::string err;
                if (!ckpt::saveCheckpoint(path, ckpt_hash,
                                          completed_epochs, image.bytes(),
                                          &err)) {
                    // The run itself is unaffected; keep going so a
                    // transient disk problem does not kill hours of
                    // simulation (older checkpoints remain usable).
                    warn(err);
                }
            }
            writeHeartbeat(completed_epochs, next_epoch, false);
        }
    }
    const auto engine_end = std::chrono::steady_clock::now();
    // Every core has retired, so the slowest core's clock is the
    // completion time.
    Cycles finish = 0;
    for (const InOrderCore& core : cores) {
        finish = std::max(finish, core.now());
    }
    // Final partial epoch: one last metric sample + epoch span.
    if (telemetry_ != nullptr) {
        if (servingWl != nullptr) {
            refreshTenantLatency();
        }
        const std::uint64_t epoch = runtime.epochIndex();
        telemetry_->sampleEpoch(epoch, finish);
        telemetry_->finalizeRequestEpoch(epoch);
        if (finish > epochStart()) {
            std::string args = "{\"epoch\":";
            args += std::to_string(epoch);
            args += '}';
            telemetry_->trace().completeSpan(
                "epoch", "epoch", TraceWriter::kPidRuntime, 0, epochStart(),
                finish - epochStart(), args);
        }
    }
    writeHeartbeat(runtime.epochIndex(), finish, true);

    // --- collect results ---
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
    res.degraded.linkRetries = ext.linkRetries();
    res.degraded.retriesExhausted = ext.retriesExhausted();
    res.degraded.poisonedReads = ext.poisonedReads();
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
    // --stats-json: the machine's counters, the per-core coreN.* rows,
    // then the run-level fields below.
    res.stats.addAll(machine);
    Counters perCore;
    for (const auto& core : cores) {
        res.accesses += core.accesses();
        res.l1Hits += core.l1Hits();
        core.counters(perCore, "core" + std::to_string(core.id()));
    }
    res.stats.addAll(perCore);

    // Engine throughput telemetry. The step counter is deterministic
    // and gates nothing; the wall clock is host-dependent and advisory
    // (the "Micros" suffix excludes it from bit-identity checks).
    {
        res.engineWallMicros = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                engine_end - engine_start)
                .count());
        res.stats.set("engine.eventsFired",
                      static_cast<double>(ready.steps()));
        res.stats.set("engine.wallMicros",
                      static_cast<double>(res.engineWallMicros));
    }

    // Advisory wall-clock readings: the Micros suffix keeps them outside
    // the determinism contract (DESIGN.md section 5.2).
    res.stats.set("runtime.solver.wallMicros", runtime.solverWallMicros());
    res.stats.set("runtime.lastAssignMicros", runtime.lastAssignMicros());
    res.stats.set("runtime.lastConfigMicros", runtime.lastConfigMicros());

    // Per-tenant latency and SLO summary (ndpext_report slo).
    if (servingWl != nullptr) {
        refreshTenantLatency();
        const std::vector<TenantSpec>& tenants =
            servingWl->serving().tenants;
        res.stats.set("serving.tenants",
                      static_cast<double>(tenants.size()));
        for (std::size_t t = 0; t < tenants.size(); ++t) {
            const std::string base = "tenant." + tenants[t].name + ".";
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
    res.energy.extDramNj = ext.dramEnergyNj();
    res.energy.cxlLinkNj = ext.linkEnergyNj();
    res.energy.icnNj = noc.energyNj();

    if (fault != nullptr) {
        res.stats.set("degraded.cycles",
                      static_cast<double>(res.degraded.cyclesDegraded));
    }
    res.stats.set("cycles", static_cast<double>(finish));
    return res;
}

} // namespace ndpext
