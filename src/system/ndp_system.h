/**
 * @file
 * NdpSystem wires every component together -- cores, stream cache (or the
 * cacheline baseline datapath), NoC, local DRAM, CXL extended memory, and
 * the host runtime -- runs a workload to completion, and returns the
 * metrics the paper's figures are built from.
 */

#ifndef NDPEXT_SYSTEM_NDP_SYSTEM_H
#define NDPEXT_SYSTEM_NDP_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/breakdown.h"
#include "sim/stats.h"
#include "system/system_config.h"
#include "workloads/workload.h"

namespace ndpext {

class Telemetry;

struct EnergyBreakdown
{
    double staticNj = 0.0;
    double ndpDramNj = 0.0;
    double extDramNj = 0.0;
    double cxlLinkNj = 0.0;
    double icnNj = 0.0;
    double sramNj = 0.0;

    double
    totalNj() const
    {
        return staticNj + ndpDramNj + extDramNj + cxlLinkNj + icnNj
            + sramNj;
    }
};

/** Degraded-mode counters (all zero on a fault-free run). */
struct DegradedStats
{
    std::uint64_t linkRetries = 0;
    std::uint64_t retriesExhausted = 0;
    std::uint64_t poisonedReads = 0;
    std::uint64_t poisonEscalations = 0;
    std::uint64_t failedUnitRedirects = 0;
    std::uint64_t dramFaultRefetches = 0;
    std::uint64_t failedUnits = 0;
    std::uint64_t emergencyReconfigs = 0;
    /** Cycles between the first fired unit failure and completion. */
    Cycles cyclesDegraded = 0;

    bool
    any() const
    {
        return linkRetries != 0 || retriesExhausted != 0
            || poisonedReads != 0 || poisonEscalations != 0
            || failedUnitRedirects != 0 || dramFaultRefetches != 0
            || failedUnits != 0 || emergencyReconfigs != 0;
    }
};

struct RunResult
{
    std::string workload;
    std::string policy;
    /** Completion time: the slowest core's final cycle. */
    Cycles cycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    /** Memory-system latency breakdown over L1 misses. */
    LatencyBreakdown bd;
    /** DRAM-cache miss rate over stream accesses (Fig. 7 dots). */
    double missRate = 0.0;
    /** Baseline metadata-cache hit rate (Section VII-A discussion). */
    double metadataHitRate = 1.0;
    EnergyBreakdown energy;
    std::uint64_t writeExceptions = 0;
    std::uint64_t invalidatedRows = 0;
    std::uint64_t survivedRows = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t slbMisses = 0;
    DegradedStats degraded;

    /**
     * Engine throughput (advisory, host wall-clock): microseconds spent
     * inside the barrier loop, excluding machine construction and
     * workload preparation. The deterministic companions (core steps,
     * pool high-water marks) live in `stats` under "engine.".
     */
    std::uint64_t engineWallMicros = 0;

    /** Simulated accesses per wall-clock second of the barrier loop. */
    double
    engineAccessesPerSec() const
    {
        return engineWallMicros == 0
            ? 0.0
            : static_cast<double>(accesses) * 1e6
                / static_cast<double>(engineWallMicros);
    }

    /** Average interconnect latency per request in cycles (Fig. 7 bars). */
    double
    avgIcnCycles() const
    {
        return bd.avg(bd.icnIntra + bd.icnInter);
    }
    /** Average end-to-end memory latency per L1 miss, cycles. */
    double
    avgMemLatency() const
    {
        return bd.avg(bd.total());
    }

    StatGroup stats;
};

class NdpSystem
{
  public:
    NdpSystem(const SystemConfig& config, PolicyKind policy);

    /**
     * Run a prepared workload (numCores must equal the unit count).
     * The system is single-use: construct a fresh one per run.
     */
    RunResult run(const Workload& workload);

    /**
     * Attach (or detach with nullptr) a telemetry sink before run().
     * The system registers every component's metric series, samples them
     * at epoch barriers, records epoch spans and packet slices in the
     * trace, and feeds the runtime's decision log. Observer-only:
     * the RunResult is bit-identical with telemetry attached or not
     * (DESIGN.md §6). The caller owns the Telemetry and writes it out.
     */
    void attachTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

    /**
     * Enable epoch-barrier checkpointing: after every `every_n_epochs`
     * completed epochs the full deterministic machine state is written
     * to `<prefix>.<epoch>.ckpt` (crash-safe temp + fsync + rename).
     * Call before run(); 0 disables. A save failure (e.g. disk full) is
     * reported as a warning and the run continues -- the simulation
     * result is unaffected.
     */
    void
    setCheckpointing(std::string prefix, std::uint64_t every_n_epochs)
    {
        ckptPrefix_ = std::move(prefix);
        ckptEvery_ = every_n_epochs;
    }

    /**
     * Resume run() from a checkpoint image instead of starting fresh.
     * Call after attachTelemetry() (telemetry state travels in the
     * image) and before run(), passing the same prepared workload that
     * run() will receive. The image is fully validated here -- magic,
     * version, size, CRC, and the config hash binding it to this exact
     * system configuration, policy, workload and fault schedule.
     * @return false with a diagnostic in `*error` (recoverable; nothing
     *         asserts) if the file is missing, corrupt or mismatched.
     */
    bool setResume(const std::string& path, const Workload& workload,
                   std::string* error);

    /** Completed epochs of the image accepted by setResume (0 before). */
    std::uint64_t resumeEpoch() const { return resumeEpoch_; }

    /**
     * Register a heartbeat status file (may be called more than once;
     * duplicates are dropped). At every epoch barrier -- and once more
     * at completion with "done":true -- the run atomically rewrites each
     * registered path with a small JSON object: epoch/cycle progress,
     * retired-access counts, per-tenant SLO tallies and wall-clock
     * stamps. Advisory and write-only: the run never reads it back, so
     * it carries wall-clock times without breaking determinism;
     * `ndpext_report watch` and `ndpext_supervise` are the readers.
     */
    void addHeartbeatPath(const std::string& path);

    /**
     * Identity hash binding a checkpoint to the run that produced it:
     * the finalized SystemConfig (every field that shapes the simulated
     * trajectory; output paths are excluded), the policy, the workload
     * identity, and the telemetry collection shape (attached + sampling
     * config), since telemetry state travels inside the image.
     */
    std::uint64_t configHash(const Workload& workload) const;

    const SystemConfig& config() const { return cfg_; }
    PolicyKind policy() const { return policy_; }

  private:
    SystemConfig cfg_;
    PolicyKind policy_;
    Telemetry* telemetry_ = nullptr;
    bool used_ = false;

    /** Checkpoint emission (setCheckpointing). */
    std::string ckptPrefix_;
    std::uint64_t ckptEvery_ = 0;
    /** Validated resume image (setResume). */
    bool resume_ = false;
    std::uint64_t resumeEpoch_ = 0;
    std::vector<std::uint8_t> resumePayload_;
    /** Heartbeat status files rewritten at every epoch barrier. */
    std::vector<std::string> heartbeatPaths_;
};

} // namespace ndpext

#endif // NDPEXT_SYSTEM_NDP_SYSTEM_H
