/**
 * ndpext_sim — command-line simulation driver.
 *
 * Run any built-in workload (or a trace file) on any cache-management
 * policy without writing C++:
 *
 *   ndpext_sim --workload=pr --policy=ndpext
 *   ndpext_sim --workload=recsys --policy=nexus --mem=hmc --accesses=50000
 *   ndpext_sim --trace=my.trace --policy=ndpext --stacks=2x2 --units=2x4
 *   ndpext_sim --workload=bfs --policy=host
 *   ndpext_sim --workload=pr --fault=unit:12@5M --fault-seed=7
 *   ndpext_sim --tenant=name=emb,workload=recsys,arrival=poisson,period=400 \
 *              --tenant=name=gnn,workload=bfs,period=900 --horizon=2M
 *   ndpext_sim --list
 *
 * Multi-tenant serving (src/serving): one repeatable --tenant flag per
 * co-located tenant turns the run into an open-loop serving simulation;
 * see --list-arrivals for arrival processes and their tunables, and
 * `ndpext_report slo` for the per-tenant latency/SLO view.
 *
 * Options:
 *   --workload=NAME      built-in workload (see --list)
 *   --trace=FILE         trace file instead of a built-in workload
 *   --policy=NAME        ndpext | ndpext-static | jigsaw | whirlpool |
 *                        nexus | static-interleave | host
 *   --mem=hbm|hmc        NDP memory technology
 *   --stacks=XxY         inter-stack mesh (default 4x2)
 *   --units=XxY          intra-stack mesh (default 2x4)
 *   --cache-kb=N         DRAM cache per unit in kB (default 1024, > 0)
 *   --footprint-mb=N     workload footprint (default 96)
 *   --accesses=N         accesses per core (default 20000)
 *   --epoch=N            reconfiguration interval in cycles
 *   --solver-warm-start  incremental sampler assignment (delta re-solve)
 *   --solver-budget-iters=N  deterministic anytime iteration cap
 *   --seed=N             workload seed (default 42)
 *   --fault=SPEC         inject faults (repeatable). SPECs:
 *                          unit:<id>@<cycle>    kill NDP unit at cycle
 *                          stack:<id>@<cycle>   kill a whole stack
 *                          cxl-transient:p=<p>  link-error probability
 *                          cxl-poison:p=<p>     media-poison probability
 *                          dram-bit:p=<p>       cache bit-fault probability
 *                        cycles take K/M/G suffixes (5M = 5,000,000)
 *   --fault-seed=N       fault-injection RNG seed (default 1)
 *   --tenant=K=V,...     add a serving tenant (repeatable; implies the
 *                        open-loop serving frontend). Keys: name,
 *                        workload, arrival, period, req, qos, reserve-pct,
 *                        slo, arrive, depart, footprint-mb, plus any
 *                        tunable of the chosen arrival process
 *   --horizon=N          serving: last admissible arrival cycle
 *                        (K/M/G suffixes; default 2M)
 *   --mem-backend.ROLE=NAME[,key=val...]
 *                        memory backend per role (unit|ext|host), e.g.
 *                          --mem-backend.ext=frfcfs,queue=16
 *                          --mem-backend.ext=refresh,preset=lpddr5x
 *                        (--list-mem-backends prints backends, tunables
 *                        and timing presets)
 *   --checkpoint=PREFIX  write PREFIX.<epoch>.ckpt machine snapshots at
 *                        epoch barriers (crash-safe; not with host)
 *   --checkpoint-every=N snapshot every N completed epochs (default 1)
 *   --resume=FILE        restore machine state from a checkpoint and
 *                        continue; outputs are byte-identical to the
 *                        uninterrupted run
 *   --stats-json=FILE    write headline metrics + every counter as JSON
 *   --telemetry=PREFIX   write PREFIX.metrics.jsonl (epoch time-series),
 *                        PREFIX.trace.json (Perfetto trace) and
 *                        PREFIX.decisions.jsonl (runtime decision log);
 *                        not supported with --policy=host
 *   --telemetry-sample=N trace every Nth L1 miss per core (default 64,
 *                        0 disables packet sampling)
 *   --dump-stats         print every simulator counter
 *
 * Malformed options print a usage message and exit with status 2.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/parse.h"
#include "common/suggest.h"
#include "mem/mem_backend_registry.h"
#include "serving/serving_workload.h"
#include "system/host_system.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
#include "workloads/trace_workload.h"
#include "workloads/workload.h"

using namespace ndpext;

namespace {

constexpr const char* kUsage =
    "usage: ndpext_sim [options]\n"
    "  --workload=NAME | --trace=FILE   input (default: --workload=pr)\n"
    "  --policy=NAME       ndpext | ndpext-static | jigsaw | whirlpool |\n"
    "                      nexus | static-interleave | host\n"
    "  --mem=hbm|hmc       NDP memory technology\n"
    "  --stacks=XxY        inter-stack mesh, X,Y > 0 (default 4x2)\n"
    "  --units=XxY         intra-stack mesh, X,Y > 0 (default 2x4)\n"
    "  --cache-kb=N        DRAM cache per unit in kB, N > 0\n"
    "  --footprint-mb=N    workload footprint in MB\n"
    "  --accesses=N        accesses per core\n"
    "  --epoch=N           reconfiguration interval in cycles\n"
    "  --solver-warm-start warm-start each epoch's sampler assignment\n"
    "                      from the previous one, re-solving only the\n"
    "                      delta set (changed/arrived/departed streams)\n"
    "  --solver-budget-iters=N  deterministic anytime budget: cap each\n"
    "                      placement decision at N refinement iterations\n"
    "                      (best-so-far placement is kept; 0 = off)\n"
    "  --seed=N            workload seed\n"
    "  --fault=SPEC        unit:<id>@<cycle> | stack:<id>@<cycle> |\n"
    "                      cxl-transient:p=<p> | cxl-poison:p=<p> |\n"
    "                      dram-bit:p=<p>   (repeatable)\n"
    "  --fault-seed=N      fault-injection RNG seed\n"
    "  --tenant=K=V,...    add a serving tenant (repeatable); keys: name,\n"
    "                      workload, arrival, period, req, qos,\n"
    "                      reserve-pct, slo, arrive, depart, footprint-mb\n"
    "                      (--list-arrivals shows arrival processes)\n"
    "  --horizon=N         serving: last admissible arrival cycle\n"
    "                      (K/M/G suffixes)\n"
    "  --mem-backend.ROLE=NAME[,key=val...]\n"
    "                      backend for ROLE in unit|ext|host\n"
    "                      (--list-mem-backends shows what is available)\n"
    "  --checkpoint=PREFIX     write PREFIX.<epoch>.ckpt at epoch barriers\n"
    "  --checkpoint-every=N    snapshot every N epochs (default 1)\n"
    "  --resume=FILE       restore from a checkpoint and continue\n"
    "  --stats-json=FILE   write metrics + all counters as JSON\n"
    "  --telemetry=PREFIX  write PREFIX.{metrics.jsonl,trace.json,\n"
    "                      decisions.jsonl} (not with --policy=host)\n"
    "  --telemetry-sample=N  trace every Nth L1 miss per core (default 64)\n"
    "  --trace-requests[=K]  serving only: end-to-end request tracing with\n"
    "                      per-tenant tail exemplars (K slowest + K\n"
    "                      uniform per epoch, default 8); adds\n"
    "                      PREFIX.exemplars.jsonl (needs --telemetry and\n"
    "                      --tenant)\n"
    "  --dump-stats        print every simulator counter\n"
    "  --list              print workloads and policies\n"
    "  --list-workloads    print the workload archetypes\n"
    "  --list-arrivals     print arrival processes and their tunables\n";

/** Print a diagnostic plus usage and exit with status 2 (bad input). */
[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "ndpext_sim: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

struct Options
{
    std::string workload = "pr";
    std::string trace;
    std::string policy = "ndpext";
    NdpMemType mem = NdpMemType::Hbm3;
    std::uint32_t stacksX = 4;
    std::uint32_t stacksY = 2;
    std::uint32_t unitsX = 2;
    std::uint32_t unitsY = 4;
    std::uint64_t cacheKb = 1024;
    std::uint64_t footprintMb = 96;
    std::uint64_t accesses = 20000;
    std::uint64_t epoch = 0;
    bool solverWarmStart = false;
    std::uint64_t solverBudgetIters = 0;
    std::uint64_t seed = 42;
    /** Raw --fault specs; parsed once the geometry is known. */
    std::vector<std::string> faultSpecs;
    std::uint64_t faultSeed = 1;
    /** Raw --tenant specs; parsed against the serving schema. */
    std::vector<std::string> tenantSpecs;
    std::uint64_t horizon = 0;
    bool horizonSet = false;
    /** Per-role backend selections; unset roles keep the defaults. */
    MemBackendConfig memBackendUnit;
    bool memBackendUnitSet = false;
    MemBackendConfig memBackendExt;
    bool memBackendExtSet = false;
    MemBackendConfig memBackendHost;
    bool memBackendHostSet = false;
    std::string checkpoint;
    std::uint64_t checkpointEvery = 1;
    std::string resume;
    std::string statsJson;
    std::string telemetry;
    std::uint64_t telemetrySample = 64;
    bool traceRequests = false;
    std::uint64_t traceK = 8;
    bool dumpStats = false;
};

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

bool
parseGrid(const std::string& value, std::uint32_t& x, std::uint32_t& y)
{
    const auto pos = value.find('x');
    if (pos == std::string::npos) {
        return false;
    }
    std::uint64_t xv = 0;
    std::uint64_t yv = 0;
    if (!parseCount(value.substr(0, pos), 1024, &xv)
        || !parseCount(value.substr(pos + 1), 1024, &yv)) {
        return false;
    }
    if (xv == 0 || yv == 0) {
        return false;
    }
    x = static_cast<std::uint32_t>(xv);
    y = static_cast<std::uint32_t>(yv);
    return true;
}

/** `--list-workloads`: the workload archetypes, one per line. */
void
printWorkloads()
{
    std::printf("workloads (--workload=NAME or --tenant=...,workload=NAME"
                "):\n");
    for (const auto& name : allWorkloadNames()) {
        std::printf("  %s\n", name.c_str());
    }
}

/** `--list-arrivals`: built-in arrival processes and tunables. */
void
printArrivals()
{
    std::printf("arrival processes (--tenant=...,arrival=NAME"
                "[,key=val...]):\n");
    for (const ArrivalInfo& info : arrivalProcesses().rows()) {
        std::printf("  %-8s %s\n", info.name.c_str(),
                    info.description.c_str());
        for (const Tunable& t : info.tunables) {
            std::printf("           %-14s %s\n", t.key.c_str(),
                        t.description.c_str());
        }
    }
}

/** `--list-mem-backends`: built-in backends, tunables and presets. */
void
printMemBackends()
{
    std::printf("memory backends (--mem-backend.ROLE=NAME[,key=val...], "
                "ROLE in unit|ext|host):\n");
    for (const MemBackendInfo& info : memBackends().rows()) {
        std::printf("  %-8s %s\n", info.name.c_str(),
                    info.description.c_str());
        for (const Tunable& t : info.tunables) {
            std::printf("           %-8s %s\n", t.key.c_str(),
                        t.description.c_str());
        }
    }
    std::printf("timing presets (key `preset=NAME`, any backend):");
    for (const std::string& name : dramPresetNames()) {
        std::printf(" %s", name.c_str());
    }
    std::printf("\n");
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        // A count in [lo, hi]; hi bounds values scaled where stored.
        auto number = [&](const char* prefix, std::uint64_t lo = 0,
                          std::uint64_t hi = kU64Max) -> std::uint64_t {
            std::uint64_t out = 0;
            if (!parseCount(value(prefix), hi, &out) || out < lo) {
                usageError("bad " + std::string(prefix, strlen(prefix) - 1)
                           + ": '" + value(prefix) + "' (expected an "
                           + "integer in [" + std::to_string(lo) + ", "
                           + std::to_string(hi) + "])");
            }
            return out;
        };
        if (arg == "--list") {
            std::printf("workloads:");
            for (const auto& name : allWorkloadNames()) {
                std::printf(" %s", name.c_str());
            }
            std::printf("\npolicies: ndpext ndpext-static jigsaw "
                        "whirlpool nexus static-interleave host\n");
            std::exit(0);
        } else if (arg == "--list-mem-backends") {
            printMemBackends();
            std::exit(0);
        } else if (arg == "--list-workloads") {
            printWorkloads();
            std::exit(0);
        } else if (arg == "--list-arrivals") {
            printArrivals();
            std::exit(0);
        } else if (arg.rfind("--mem-backend.", 0) == 0) {
            const std::string rest = value("--mem-backend.");
            const auto eq = rest.find('=');
            if (eq == std::string::npos) {
                usageError("bad " + arg
                           + " (expected --mem-backend.ROLE=NAME)");
            }
            const std::string role = rest.substr(0, eq);
            const std::string spec = rest.substr(eq + 1);
            MemBackendConfig* target = nullptr;
            bool* set = nullptr;
            if (role == "unit") {
                target = &opt.memBackendUnit;
                set = &opt.memBackendUnitSet;
            } else if (role == "ext") {
                target = &opt.memBackendExt;
                set = &opt.memBackendExtSet;
            } else if (role == "host") {
                target = &opt.memBackendHost;
                set = &opt.memBackendHostSet;
            } else {
                usageError("bad --mem-backend role: '" + role
                           + "' (expected unit|ext|host)");
            }
            std::string error;
            if (!MemBackendConfig::parseSpec(spec, target, &error)) {
                usageError("bad --mem-backend." + role + ": " + error);
            }
            *set = true;
        } else if (arg.rfind("--workload=", 0) == 0) {
            opt.workload = value("--workload=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            opt.trace = value("--trace=");
        } else if (arg.rfind("--policy=", 0) == 0) {
            opt.policy = value("--policy=");
        } else if (arg.rfind("--mem=", 0) == 0) {
            const std::string m = value("--mem=");
            if (m == "hbm") {
                opt.mem = NdpMemType::Hbm3;
            } else if (m == "hmc") {
                opt.mem = NdpMemType::Hmc2;
            } else {
                usageError("bad --mem: '" + m + "' (expected hbm|hmc)");
            }
        } else if (arg.rfind("--stacks=", 0) == 0) {
            if (!parseGrid(value("--stacks="), opt.stacksX, opt.stacksY)) {
                usageError("bad --stacks: '" + value("--stacks=")
                           + "' (expected XxY with X,Y in 1..1024)");
            }
        } else if (arg.rfind("--units=", 0) == 0) {
            if (!parseGrid(value("--units="), opt.unitsX, opt.unitsY)) {
                usageError("bad --units: '" + value("--units=")
                           + "' (expected XxY with X,Y in 1..1024)");
            }
        } else if (arg.rfind("--cache-kb=", 0) == 0) {
            opt.cacheKb = number("--cache-kb=", 1, kU64Max / 1024);
        } else if (arg.rfind("--footprint-mb=", 0) == 0) {
            opt.footprintMb = number("--footprint-mb=", 1, kU64Max / 1_MiB);
        } else if (arg.rfind("--accesses=", 0) == 0) {
            opt.accesses = number("--accesses=");
        } else if (arg.rfind("--epoch=", 0) == 0) {
            opt.epoch = number("--epoch=");
        } else if (arg == "--solver-warm-start") {
            opt.solverWarmStart = true;
        } else if (arg.rfind("--solver-budget-iters=", 0) == 0) {
            opt.solverBudgetIters = number("--solver-budget-iters=");
        } else if (arg.rfind("--seed=", 0) == 0) {
            opt.seed = number("--seed=");
        } else if (arg.rfind("--fault=", 0) == 0) {
            opt.faultSpecs.push_back(value("--fault="));
        } else if (arg.rfind("--fault-seed=", 0) == 0) {
            opt.faultSeed = number("--fault-seed=");
        } else if (arg.rfind("--tenant=", 0) == 0) {
            opt.tenantSpecs.push_back(value("--tenant="));
        } else if (arg.rfind("--horizon=", 0) == 0) {
            if (!parseCycles(value("--horizon="), &opt.horizon)
                || opt.horizon == 0) {
                usageError("bad --horizon: '" + value("--horizon=")
                           + "' (expected a positive cycle count, "
                             "K/M/G suffixes allowed)");
            }
            opt.horizonSet = true;
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            opt.checkpoint = value("--checkpoint=");
            if (opt.checkpoint.empty()) {
                usageError("bad --checkpoint: empty output prefix");
            }
        } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
            opt.checkpointEvery = number("--checkpoint-every=", 1);
        } else if (arg.rfind("--resume=", 0) == 0) {
            opt.resume = value("--resume=");
            if (opt.resume.empty()) {
                usageError("bad --resume: empty file name");
            }
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            opt.statsJson = value("--stats-json=");
            if (opt.statsJson.empty()) {
                usageError("bad --stats-json: empty file name");
            }
        } else if (arg.rfind("--telemetry=", 0) == 0) {
            opt.telemetry = value("--telemetry=");
            if (opt.telemetry.empty()) {
                usageError("bad --telemetry: empty output prefix");
            }
        } else if (arg.rfind("--telemetry-sample=", 0) == 0) {
            opt.telemetrySample = number("--telemetry-sample=");
        } else if (arg == "--trace-requests") {
            opt.traceRequests = true;
        } else if (arg.rfind("--trace-requests=", 0) == 0) {
            opt.traceRequests = true;
            opt.traceK = number("--trace-requests=", 1);
        } else if (arg == "--dump-stats") {
            opt.dumpStats = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            std::exit(0);
        } else {
            usageError("unknown argument: '" + arg + "'");
        }
    }
    // Validate the policy name up front so a typo is a usage error, not
    // a mid-run abort.
    if (opt.policy != "host" && policies().find(opt.policy) == nullptr) {
        usageError("unknown --policy: '" + opt.policy + "'");
    }
    return opt;
}

void
printResult(const RunResult& r, std::uint64_t prepare_micros,
            bool dump_stats)
{
    std::printf("workload        %s\n", r.workload.c_str());
    std::printf("policy          %s\n", r.policy.c_str());
    std::printf("cycles          %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("accesses        %llu\n",
                static_cast<unsigned long long>(r.accesses));
    std::printf("l1 hit rate     %.3f\n",
                r.accesses == 0
                    ? 0.0
                    : static_cast<double>(r.l1Hits)
                        / static_cast<double>(r.accesses));
    std::printf("cache miss rate %.3f\n", r.missRate);
    std::printf("avg mem latency %.1f cycles\n", r.avgMemLatency());
    std::printf("avg icn latency %.1f cycles\n", r.avgIcnCycles());
    std::printf("reconfigs       %llu\n",
                static_cast<unsigned long long>(r.reconfigurations));
    std::printf("energy          %.3f mJ\n", r.energy.totalNj() * 1e-6);
    // stderr: stdout reports are byte-identical across runs (a
    // documented contract); wall-clock times are host-dependent.
    std::fprintf(stderr, "prepare         %.1f ms\n",
                 static_cast<double>(prepare_micros) * 1e-3);
    if (r.engineWallMicros != 0) {
        std::fprintf(stderr, "engine rate     %.0f accesses/s (%.1f ms)\n",
                     r.engineAccessesPerSec(),
                     static_cast<double>(r.engineWallMicros) * 1e-3);
    }
    if (r.degraded.any()) {
        const auto& d = r.degraded;
        std::printf("--- degraded mode ---\n");
        std::printf("failed units        %llu\n",
                    static_cast<unsigned long long>(d.failedUnits));
        std::printf("emergency reconfigs %llu\n",
                    static_cast<unsigned long long>(d.emergencyReconfigs));
        std::printf("redirected accesses %llu\n",
                    static_cast<unsigned long long>(d.failedUnitRedirects));
        std::printf("link retries        %llu\n",
                    static_cast<unsigned long long>(d.linkRetries));
        std::printf("retries exhausted   %llu\n",
                    static_cast<unsigned long long>(d.retriesExhausted));
        std::printf("poisoned reads      %llu\n",
                    static_cast<unsigned long long>(d.poisonedReads));
        std::printf("poison escalations  %llu\n",
                    static_cast<unsigned long long>(d.poisonEscalations));
        std::printf("dram bit refetches  %llu\n",
                    static_cast<unsigned long long>(d.dramFaultRefetches));
        std::printf("cycles degraded     %llu\n",
                    static_cast<unsigned long long>(d.cyclesDegraded));
    }
    if (dump_stats) {
        std::printf("--- all counters ---\n");
        r.stats.dump(std::cout);
    }
}

/**
 * Write headline metrics plus the full counter set as one JSON object:
 * scalars first, then every StatGroup counter under "stats". Crash-safe:
 * temp-file + rename, so the file is never observably torn.
 */
void writeStatsJsonBody(const RunResult& r, std::uint64_t prepare_micros,
                        std::ostream& out);

bool
writeStatsJson(const RunResult& r, std::uint64_t prepare_micros,
               const std::string& path)
{
    return writeFileAtomic(path, [&r, prepare_micros](std::ostream& out) {
        writeStatsJsonBody(r, prepare_micros, out);
    });
}

void
writeStatsJsonBody(const RunResult& r, std::uint64_t prepare_micros,
                   std::ostream& out)
{
    out << "{\n";
    out << "  \"workload\": \"" << r.workload << "\",\n";
    out << "  \"policy\": \"" << r.policy << "\",\n";
    out << "  \"cycles\": " << r.cycles << ",\n";
    out << "  \"accesses\": " << r.accesses << ",\n";
    out << "  \"l1Hits\": " << r.l1Hits << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", r.missRate);
    out << "  \"missRate\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.17g", r.avgMemLatency());
    out << "  \"avgMemLatencyCycles\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.17g", r.energy.totalNj());
    out << "  \"energyNj\": " << buf << ",\n";
    out << "  \"reconfigurations\": " << r.reconfigurations << ",\n";
    // Host-dependent phase times and engine throughput: top-level only
    // (never under "stats" except the Micros-suffixed engine twin), so
    // bit-identity checks stay clean while CI can gate on the rate.
    out << "  \"prepareWallMicros\": " << prepare_micros << ",\n";
    out << "  \"engineWallMicros\": " << r.engineWallMicros << ",\n";
    std::snprintf(buf, sizeof(buf), "%.17g", r.engineAccessesPerSec());
    out << "  \"engineAccessesPerSec\": " << buf << ",\n";
    out << "  \"writeExceptions\": " << r.writeExceptions << ",\n";
    out << "  \"degraded\": {\n";
    out << "    \"failedUnits\": " << r.degraded.failedUnits << ",\n";
    out << "    \"linkRetries\": " << r.degraded.linkRetries << ",\n";
    out << "    \"poisonEscalations\": " << r.degraded.poisonEscalations
        << ",\n";
    out << "    \"failedUnitRedirects\": "
        << r.degraded.failedUnitRedirects << ",\n";
    out << "    \"dramFaultRefetches\": " << r.degraded.dramFaultRefetches
        << ",\n";
    out << "    \"cyclesDegraded\": " << r.degraded.cyclesDegraded
        << "\n  },\n";
    out << "  \"stats\": ";
    r.stats.dumpJson(out);
    out << "\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);

    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = opt.stacksX;
    cfg.stacksY = opt.stacksY;
    cfg.unitsX = opt.unitsX;
    cfg.unitsY = opt.unitsY;
    cfg.memType = opt.mem;
    cfg.unitCacheBytes = opt.cacheKb * 1024;
    if (opt.epoch != 0) {
        cfg.runtime.epochCycles = opt.epoch;
    }
    cfg.runtime.solverWarmStart = opt.solverWarmStart;
    cfg.runtime.solverBudgetIters = opt.solverBudgetIters;
    if (opt.memBackendUnitSet) {
        cfg.memBackendUnit = opt.memBackendUnit;
    }
    if (opt.memBackendExtSet) {
        cfg.memBackendExt = opt.memBackendExt;
    }
    if (opt.memBackendHostSet) {
        cfg.memBackendHost = opt.memBackendHost;
    }

    cfg.faults.seed = opt.faultSeed;
    for (const std::string& spec : opt.faultSpecs) {
        std::string error;
        if (!parseFaultSpec(spec, cfg.unitsX * cfg.unitsY, cfg.faults,
                            &error)) {
            usageError("bad --fault: " + error);
        }
    }
    for (const std::string& spec : opt.tenantSpecs) {
        TenantSpec tenant;
        std::string error;
        if (!parseTenantSpec(spec, &tenant, &error)) {
            usageError(error); // already names --tenant
        }
        cfg.serving.tenants.push_back(std::move(tenant));
    }
    if (opt.horizonSet) {
        if (!cfg.serving.enabled()) {
            usageError("--horizon requires at least one --tenant");
        }
        cfg.serving.horizonCycles = opt.horizon;
    }
    if (cfg.serving.enabled() && !opt.trace.empty()) {
        usageError("--tenant cannot be combined with --trace");
    }
    if (cfg.serving.enabled() && opt.policy == "host") {
        usageError("--tenant is not supported with --policy=host");
    }
    if (opt.policy == "host" && cfg.faults.anyFaults()) {
        usageError("--fault is not supported with --policy=host");
    }
    if (opt.policy == "host" && !opt.telemetry.empty()) {
        usageError("--telemetry is not supported with --policy=host");
    }
    if (opt.traceRequests && opt.telemetry.empty()) {
        usageError("--trace-requests needs --telemetry (exemplars are a "
                   "telemetry artifact)");
    }
    if (opt.traceRequests && !cfg.serving.enabled()) {
        usageError("--trace-requests needs at least one --tenant "
                   "(requests only exist in serving runs)");
    }
    if (opt.policy == "host"
        && (!opt.checkpoint.empty() || !opt.resume.empty())) {
        usageError("--checkpoint/--resume are not supported with "
                   "--policy=host");
    }

    // Recoverable validation of flag-derived state: a typo exits with a
    // diagnostic instead of tripping finalize()'s internal asserts.
    std::string cfg_error;
    if (!cfg.validate(&cfg_error)) {
        std::fprintf(stderr, "ndpext_sim: invalid configuration: %s\n",
                     cfg_error.c_str());
        return 1;
    }
    cfg.finalize();

    // Prepare phase: building the workload's inputs (R-MAT graphs,
    // tables, a parsed trace) before the first simulated access.
    const auto prepare_start = std::chrono::steady_clock::now();
    std::unique_ptr<Workload> workload;
    if (cfg.serving.enabled()) {
        auto serving = std::make_unique<ServingWorkload>(
            cfg.serving, cfg.runtime.epochCycles);
        WorkloadParams params;
        params.numCores = cfg.numUnits();
        params.footprintBytes = opt.footprintMb * 1_MiB;
        params.accessesPerCore = opt.accesses;
        params.seed = opt.seed;
        serving->prepare(params);
        // Each tenant brings its workload's streams; together they must
        // fit the stream table.
        const std::size_t streams = serving->streamConfigs().size();
        if (streams > StreamTable::kMaxStreams) {
            std::fprintf(stderr,
                         "ndpext_sim: invalid configuration: --tenant: "
                         "%zu tenants declare %zu streams; the stream "
                         "table holds at most %zu\n",
                         cfg.serving.tenants.size(), streams,
                         StreamTable::kMaxStreams);
            return 1;
        }
        workload = std::move(serving);
    } else if (!opt.trace.empty()) {
        std::string error;
        workload =
            TraceWorkload::parseFile(opt.trace, cfg.numUnits(), &error);
        if (workload == nullptr) {
            usageError(error);
        }
    } else {
        const auto names = allWorkloadNames();
        if (std::find(names.begin(), names.end(), opt.workload)
            == names.end()) {
            std::string why = "unknown --workload: '" + opt.workload + "'";
            const std::string hint = closestName(opt.workload, names);
            if (!hint.empty()) {
                why += " (did you mean '" + hint + "'?)";
            } else {
                why += " (--list-workloads prints the available "
                       "workloads)";
            }
            usageError(why);
        }
        workload = makeWorkload(opt.workload);
        WorkloadParams params;
        params.numCores = cfg.numUnits();
        params.footprintBytes = opt.footprintMb * 1_MiB;
        params.accessesPerCore = opt.accesses;
        params.seed = opt.seed;
        workload->prepare(params);
    }
    const auto prepare_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - prepare_start)
            .count());

    // Crash marker: dropped before the run, removed only once every
    // output artifact is complete. A leftover marker tells consumers
    // (ndpext_report check) that the producing run died mid-epoch and
    // its outputs -- though individually parseable thanks to atomic
    // writes -- describe an unfinished run.
    std::string marker;
    if (!opt.telemetry.empty()) {
        marker = opt.telemetry + ".inprogress";
    } else if (!opt.statsJson.empty()) {
        marker = opt.statsJson + ".inprogress";
    }
    if (!marker.empty()) {
        std::ofstream m(marker);
        m << "ndpext_sim run in progress\n";
        if (!m) {
            std::fprintf(stderr,
                         "ndpext_sim: cannot write marker file '%s'\n",
                         marker.c_str());
            return 1;
        }
    }

    RunResult result;
    if (opt.policy == "host") {
        HostParams hp;
        hp.numCores = cfg.numUnits();
        hp.meshX = 8;
        hp.meshY = (hp.numCores + 7) / 8;
        hp.numCores = hp.meshX * hp.meshY;
        if (hp.numCores != cfg.numUnits()) {
            usageError("--policy=host needs a core count divisible by 8");
        }
        hp.dram = cfg.hostMemBackend();
        HostSystem host(hp);
        result = host.run(*workload);
    } else {
        NdpSystem system(cfg, policyFromName(opt.policy));
        std::unique_ptr<Telemetry> telemetry;
        if (!opt.telemetry.empty()) {
            TelemetryConfig tcfg;
            tcfg.outPrefix = opt.telemetry;
            tcfg.packetSampleEvery = opt.telemetrySample;
            tcfg.traceRequests = opt.traceRequests;
            tcfg.traceSlowK = opt.traceK;
            tcfg.traceUniformK = opt.traceK;
            telemetry = std::make_unique<Telemetry>(tcfg);
            system.attachTelemetry(telemetry.get());
            system.addHeartbeatPath(opt.telemetry + ".heartbeat.json");
        }
        if (!opt.checkpoint.empty()) {
            system.setCheckpointing(opt.checkpoint, opt.checkpointEvery);
            system.addHeartbeatPath(opt.checkpoint + ".heartbeat.json");
        }
        if (!opt.resume.empty()) {
            // Bad/corrupt/mismatched checkpoint files are user input:
            // a diagnostic and a nonzero exit, never an abort.
            std::string error;
            if (!system.setResume(opt.resume, *workload, &error)) {
                std::fprintf(stderr, "ndpext_sim: %s\n", error.c_str());
                return 1;
            }
            // stderr: stdout stays byte-identical to an uninterrupted
            // run (the documented resume contract).
            std::fprintf(stderr,
                         "ndpext_sim: resuming '%s' at epoch %llu\n",
                         opt.resume.c_str(),
                         static_cast<unsigned long long>(
                             system.resumeEpoch()));
        }
        result = system.run(*workload);
        if (telemetry != nullptr) {
            std::string error;
            if (!telemetry->writeAll(&error)) {
                std::fprintf(stderr, "ndpext_sim: %s\n", error.c_str());
                return 1;
            }
        }
    }
    printResult(result, prepare_micros, opt.dumpStats);
    if (!opt.statsJson.empty()
        && !writeStatsJson(result, prepare_micros, opt.statsJson)) {
        std::fprintf(stderr, "ndpext_sim: cannot write --stats-json file '%s'\n",
                     opt.statsJson.c_str());
        return 1;
    }
    if (!marker.empty()) {
        std::remove(marker.c_str());
    }
    return 0;
}
