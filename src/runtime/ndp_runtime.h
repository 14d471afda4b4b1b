/**
 * @file
 * The host-side software runtime (Section V).
 *
 * Every epoch (50 M cycles at paper scale) the runtime:
 *   1. gathers the per-unit stream-access bitvectors and counters,
 *   2. assigns samplers to streams for the *next* epoch via max-flow
 *      (Section V-B), rotating in any streams left uncovered,
 *   3. reads out the sampled miss curves (falling back to the previous
 *      epoch's curve, or a linear default, for streams without a sampler),
 *   4. invokes the configurator to produce the new stream remap table, and
 *   5. applies it to the hardware (consistent hashing preserves rows).
 *
 * The configurator is pluggable so the same epoch machinery drives NDPExt
 * (Algorithm 1), NDPExt-static, and the adapted NUCA baselines.
 */

#ifndef NDPEXT_RUNTIME_NDP_RUNTIME_H
#define NDPEXT_RUNTIME_NDP_RUNTIME_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "ndp/stream_cache.h"
#include "runtime/config_algorithm.h"
#include "runtime/sampler_assign.h"
#include "sim/stats.h"

namespace ndpext {

class Telemetry;

/**
 * Demand fingerprint for delta-set derivation (incremental solver).
 * Quantizes each miss-curve point to log2(1 + misses) quarter-steps --
 * a point must move by roughly 19% before the fingerprint changes, so
 * sub-threshold per-epoch noise does not invalidate warm starts.
 * Purely a function of the gathered demand; replay tools derive
 * identical deltas from recorded DecisionLog inputs.
 */
std::uint64_t demandFingerprint(const StreamDemand& d);

/** Strategy that turns profiled demands into a cache configuration. */
class Configurator
{
  public:
    virtual ~Configurator() = default;

    virtual std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) = 0;

    /** False for one-shot (static) policies. */
    virtual bool reconfigures() const { return true; }

    /**
     * Work counters of the last configure() (0 for non-NDPExt). The
     * runtime reads them right after each configure(), so they are not
     * checkpointed.
     */
    virtual std::uint64_t lastIterations() const { return 0; }
    virtual std::uint64_t lastExtends() const { return 0; }
    virtual std::uint64_t lastMerges() const { return 0; }
    /** Did the last configure() stop on its anytime budget? */
    virtual bool lastBudgetHit() const { return false; }

    /**
     * Unit-health update (degraded mode): `failed[u]` marks unit u dead.
     * Health-aware configurators exclude those units from capacity and
     * demand; the default ignores it (the runtime strips failed-unit
     * shares from the emitted configuration regardless). The runtime
     * passes the stream cache's mask after each failure and after a
     * restore, so no configurator state is checkpointed.
     */
    virtual void setUnitHealth(const std::vector<bool>& failed)
    {
        (void)failed;
    }

    virtual std::string name() const = 0;
};

/** NDPExt's Algorithm 1 wrapped as a Configurator. */
class NdpExtConfigurator : public Configurator
{
  public:
    NdpExtConfigurator(const ConfigParams& params, const NocModel& noc)
        : algo_(params, noc)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override
    {
        return algo_.run(demands);
    }

    void setUnitHealth(const std::vector<bool>& failed) override
    {
        algo_.setFailedUnits(failed);
    }

    std::string name() const override { return "ndpext"; }

    std::uint64_t lastIterations() const override
    {
        return algo_.lastIterations();
    }
    std::uint64_t lastExtends() const override
    {
        return algo_.lastExtends();
    }
    std::uint64_t lastMerges() const override
    {
        return algo_.lastMerges();
    }
    bool lastBudgetHit() const override
    {
        return algo_.lastBudgetHit();
    }

  private:
    ConfigAlgorithm algo_;
};

/** NDPExt-static: equal allocation, one-shot (see static_config.h). */
class StaticEqualConfigurator : public Configurator
{
  public:
    explicit StaticEqualConfigurator(const StreamCacheController& cache)
        : cache_(cache)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override;

    bool reconfigures() const override { return false; }
    std::string name() const override { return "ndpext-static"; }

  private:
    const StreamCacheController& cache_;
};

struct RuntimeParams
{
    /** Reconfiguration interval in core cycles (paper: 50 M). */
    Cycles epochCycles = 2'000'000;
    /** Reconfiguration method (Fig. 9e). */
    enum class Method
    {
        Static,  ///< configure once at start, never adapt
        Partial, ///< adapt only until partialUntilCycles
        Full,    ///< adapt every epoch
    };
    Method method = Method::Full;
    Cycles partialUntilCycles = 8'000'000;
    /**
     * Minimum accesses a sampler must have observed before its miss curve
     * is trusted; below this the runtime keeps the previous epoch's curve
     * or the footprint-proportional default. Short scaled epochs would
     * otherwise yield cold-miss-only (flat) curves and starve every
     * stream of cache space.
     */
    std::uint64_t minSamplerAccesses = 256;
    /**
     * Incremental placement control plane (all default off, keeping
     * every decision bit-identical to the non-incremental runtime):
     *
     * solverWarmStart seeds each epoch's max-flow sampler assignment
     * with the previous epoch's still-valid (unit, stream) pairs and
     * re-solves only the delta set -- streams whose demand fingerprint
     * changed beyond the quantization threshold, arrived, departed, or
     * were churn-notified by the serving layer.
     */
    bool solverWarmStart = false;
    /**
     * Deterministic per-decision iteration cap for the configuration
     * algorithm (simulated budget; 0 = unlimited). Bit-identical
     * across hosts.
     */
    std::uint64_t solverBudgetIters = 0;
};

class NdpRuntime
{
  public:
    NdpRuntime(const RuntimeParams& params, StreamCacheController& cache,
               std::unique_ptr<Configurator> configurator);

    /**
     * Called once before simulation: installs the initial sampler
     * assignment; one-shot configurators also allocate now (using
     * footprint-proportional default demands).
     */
    void start();

    /** Called at each epoch boundary. */
    void onEpochEnd(Cycles now);

    /**
     * NDP units (memory side) failed at the same cycle, e.g. one unit or
     * a whole stack. Degrades the cache, which owns unit health
     * (redirects, replica collapse), informs the configurator, and --
     * for reconfiguring policies -- immediately runs one *out-of-epoch*
     * emergency reconfiguration that re-places every stream around the
     * dead units. Static policies stay degraded (their accesses to a
     * dead slice redirect to extended memory forever -- the headline gap
     * in bench_fault_degradation). `now` (when known) timestamps the
     * telemetry decision record.
     */
    void onUnitFailures(const std::vector<UnitId>& units, Cycles now = 0);

    /**
     * Attach per-stream QoS attributes (multi-tenant serving). The
     * runtime stamps them onto every gathered demand so the
     * configurator can enforce class capacity constraints, and gives
     * reserved streams first claim on sampler coverage. Derived from
     * the static serving config at system construction, so this does
     * not need to travel through checkpoints.
     */
    void setStreamQos(const std::vector<StreamQos>& qos)
    {
        streamQos_.clear();
        for (const StreamQos& q : qos) {
            streamQos_[q.sid] = q;
        }
    }

    /**
     * Serving-layer churn notification: the given streams' tenants
     * changed activity at this epoch boundary (arrival or departure of
     * an open-loop tenant window), so force them into the next delta
     * set even if their demand fingerprints look unchanged. Cleared
     * after each epoch's delta computation; a no-op unless
     * solverWarmStart is enabled.
     */
    void noteStreamChurn(const std::vector<StreamId>& sids);

    /**
     * Attach (or detach with nullptr) the telemetry sink. Every
     * configuration decision -- initial, per-epoch, emergency -- is then
     * captured in its decision log, and reconfiguration/failure instants
     * land in its trace. Observer-only: decisions are identical with
     * telemetry on or off.
     */
    void setTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

    /**
     * Declare the runtime's deterministic counters under `prefix`,
     * including `solver.*`. The wall-clock readings (*Micros getters)
     * are not counters: NdpSystem writes them as run-level fields.
     */
    void counters(Counters& out, const std::string& prefix) const;

    const RuntimeParams& params() const { return params_; }
    std::uint64_t reconfigurations() const { return reconfigs_; }
    /** Out-of-epoch reconfigurations triggered by unit failures. */
    std::uint64_t emergencyReconfigurations() const
    {
        return emergencyReconfigs_;
    }
    std::uint64_t failedUnits() const { return cache_.failedUnitCount(); }
    /** Epoch barriers crossed (the initial configuration is epoch 0). */
    std::uint64_t epochIndex() const { return epochIndex_; }
    /** Epoch configs skipped because they barely changed anything. */
    std::uint64_t skippedReconfigurations() const
    {
        return skippedReconfigs_;
    }
    std::uint64_t streamsCovered() const { return covered_; }
    /** Previous-epoch sampler pairs reused by warm starts. */
    std::uint64_t solverWarmReused() const { return solverWarmReused_; }
    /** Cumulative delta-set size over warm-started decisions. */
    std::uint64_t solverDeltaStreams() const
    {
        return solverDeltaStreams_;
    }
    /** Wall-clock microseconds spent in the last sampler assignment. */
    double lastAssignMicros() const { return lastAssignMicros_; }
    /** Wall-clock microseconds spent in the last configuration run. */
    double lastConfigMicros() const { return lastConfigMicros_; }
    /** Cumulative wall-clock microseconds of every assignment and
     *  configuration run (advisory, never checkpointed). */
    double solverWallMicros() const { return solverWallMicros_; }

    /**
     * Checkpoint pass. A resumed system restores this state instead of
     * calling start(); advisory wall-clock fields (lastAssignMicros /
     * lastConfigMicros) intentionally do not travel. Loading hands the
     * configurator the cache's unit-health mask, so the cache must be
     * restored first.
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    /** Build demands from this epoch's profile. */
    std::vector<StreamDemand> gatherDemands();

    /**
     * Run max-flow assignment and install it in the sampler banks.
     * With a non-null `delta` (and a previous assignment to reuse) the
     * solve warm-starts from lastAssignment_, re-solving only the
     * delta streams; nullptr forces a cold solve.
     */
    void assignSamplers(bool first_epoch,
                        const std::vector<StreamId>* delta = nullptr);

    /**
     * Delta set for this epoch's solves: streams whose demand
     * fingerprint changed (quantized miss-curve buckets ~19% wide, so
     * sub-threshold noise does not invalidate the warm start), arrived,
     * departed, or were churn-notified. Updates lastFingerprints_ and
     * consumes churnStreams_.
     */
    std::vector<StreamId>
    computeDelta(const std::vector<StreamDemand>& demands);

    /** Roll per-decision solver counters after a configure() call. */
    void noteDecision();

    /**
     * Out-of-epoch reconfiguration after a unit failure. Applies
     * unconditionally (no stability guard): running degraded costs more
     * than any row invalidation the reconfiguration could cause.
     */
    void emergencyReconfigure();

    /**
     * Drop failed-unit shares from a configuration emitted by a
     * health-unaware configurator (e.g., the adapted NUCA baselines).
     */
    void stripFailedUnits(
        std::vector<std::pair<StreamId, StreamAlloc>>& config) const;

    /** Capture one configuration decision into the telemetry sink. */
    void recordDecision(
        const char* kind, Cycles now,
        const std::vector<StreamDemand>& demands,
        const std::vector<std::pair<StreamId, StreamAlloc>>& config,
        bool applied);

    RuntimeParams params_;
    StreamCacheController& cache_;
    std::unique_ptr<Configurator> configurator_;
    SamplerAssigner assigner_;

    /** Stamp serving QoS attributes onto a gathered demand. */
    void applyQos(StreamDemand& d) const;

    /** Last known miss-rate curve per stream (misses for 1 access). */
    std::map<StreamId, MissCurve> lastRateCurves_;
    /** Per-stream QoS attributes (empty outside serving mode). */
    std::map<StreamId, StreamQos> streamQos_;
    /** Streams the last assignment could not cover (rotated in next). */
    std::vector<StreamId> pendingUncovered_;

    Telemetry* telemetry_ = nullptr;
    /** Epoch barriers crossed; the machine's one epoch count (decision
     *  records, telemetry samples and checkpoint names read it). */
    std::uint64_t epochIndex_ = 0;
    /** Last sim time seen (epoch boundary); stamps emergency records. */
    Cycles lastNow_ = 0;
    /** Last max-flow sampler assignment (for the decision log). */
    SamplerAssignment lastAssignment_;

    std::uint64_t reconfigs_ = 0;
    std::uint64_t emergencyReconfigs_ = 0;
    std::uint64_t skippedReconfigs_ = 0;
    std::uint64_t covered_ = 0;
    double lastAssignMicros_ = 0.0;
    double lastConfigMicros_ = 0.0;
    bool configuredOnce_ = false;

    /** Per-stream demand fingerprints from the last delta computation. */
    std::map<StreamId, std::uint64_t> lastFingerprints_;
    /** Streams churn-notified since the last delta computation. */
    std::vector<StreamId> churnStreams_;
    /**
     * solver.* counters. All deterministic (and checkpointed) except
     * the cumulative wall-clock, which is advisory: it is a run-level
     * *Micros field of --stats-json, outside the determinism contract,
     * and never a counter, because telemetry output is byte-compared
     * across runs.
     */
    std::uint64_t solverDecisions_ = 0;
    std::uint64_t solverIterations_ = 0;
    std::uint64_t solverBudgetHits_ = 0;
    std::uint64_t solverWarmReused_ = 0;
    std::uint64_t solverDeltaStreams_ = 0;
    double solverWallMicros_ = 0.0;
};

} // namespace ndpext

#endif // NDPEXT_RUNTIME_NDP_RUNTIME_H
