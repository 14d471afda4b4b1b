/**
 * @file
 * The multi-tenant open-loop serving frontend.
 *
 * ServingWorkload composes one sub-workload per tenant (any archetype
 * from src/workloads: embedding lookups, graph queries, tensor kernels)
 * into a single stream table / address space, and drives each core with
 * a ServingGenerator that turns per-tenant arrival processes into
 * request traffic:
 *
 *  - Open loop: requests arrive on their own clock (Poisson / bursty /
 *    diurnal, one independent process per tenant per core). A request is
 *    `req` consecutive accesses of the tenant's workload pattern; its
 *    first access carries Access::notBefore so an idle core waits for
 *    the arrival, while a backlogged core accrues queueing delay -- the
 *    classic open-loop overload behaviour.
 *  - QoS scheduling: reserved-class requests are served before
 *    best-effort ones (FCFS within a class), mirroring the reserved
 *    NDP-cache carve-out Algorithm 1 enforces (config_algorithm.h).
 *  - Churn: each tenant is active in an epoch-aligned window
 *    [arrive, depart) and generates no arrivals outside it.
 *  - SLO telemetry: the core reports request completion through
 *    AccessGenerator::onRetire; per-tenant latency histograms, p50/p99
 *    and SLO attainment flow into --stats-json and the metrics JSONL
 *    (`ndpext_report slo`).
 *
 * Determinism: every arrival draw and scheduling decision is a pure
 * function of (config, seed, core clock), and core clocks are
 * bit-identical across thread counts, so serving runs are too. The
 * generator checkpoints self-contained (arrival processes, pending
 * queues, in-flight requests, latency records) and fast-forwards its
 * sub-generators by replay, so killed-and-resumed runs stay
 * byte-identical.
 */

#ifndef NDPEXT_SERVING_SERVING_WORKLOAD_H
#define NDPEXT_SERVING_SERVING_WORKLOAD_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "serving/serving_config.h"
#include "workloads/workload.h"

namespace ndpext {

/** Merge `src` into `dst`; both must share the same bucket config. */
void mergeHistogram(Histogram* dst, const Histogram& src);

/** Per-(tenant, core) serving counters; aggregated in core order. */
struct TenantServingStats
{
    explicit TenantServingStats(Cycles slo_cycles)
        : latency(16.0 * static_cast<double>(slo_cycles), 256)
    {
    }

    /** Requests admitted (arrival drawn inside the activity window). */
    std::uint64_t arrivals = 0;
    /** Requests whose first access was issued. */
    std::uint64_t started = 0;
    /** Requests whose completion the core reported back. */
    std::uint64_t retired = 0;
    /** Retired requests with latency above the tenant's SLO. */
    std::uint64_t sloViolations = 0;
    /** Request latency (arrival to completion), cycles. */
    Histogram latency;
};

class ServingWorkload;

/**
 * One core's open-loop request scheduler. Pulls pattern accesses from
 * per-tenant sub-generators, stamps them with arrival metadata, and
 * measures request latency via onRetire.
 */
class ServingGenerator final : public AccessGenerator
{
  public:
    ServingGenerator(const ServingWorkload& w, CoreId core);
    ~ServingGenerator() override;

    bool next(Access& out) override;
    bool next(Access& out, Cycles now) override;
    void onRetire(const Access& acc, Cycles done) override;

    bool checkpointSelfContained() const override { return true; }
    void checkpointExtra(ckpt::Archive& ar) override;

    /** Per-tenant counters (index = tenant order in ServingConfig). */
    const TenantServingStats& tenantStats(std::size_t tenant) const
    {
        return tenants_[tenant].stats;
    }

  private:
    struct TenantRt
    {
        TenantRt(std::unique_ptr<AccessGenerator> sub_gen,
                 std::unique_ptr<ArrivalProcess> arrival_proc,
                 Cycles slo_cycles)
            : sub(std::move(sub_gen)), arrival(std::move(arrival_proc)),
              stats(slo_cycles)
        {
        }

        std::unique_ptr<AccessGenerator> sub;
        std::unique_ptr<ArrivalProcess> arrival;
        /** Absolute time of the last drawn arrival. */
        Cycles clock = 0;
        /** Next not-yet-queued arrival; valid iff !exhausted. */
        Cycles nextArrival = 0;
        /** No further arrivals (window or horizon exceeded). */
        bool exhausted = false;
        /** Accesses pulled from `sub` (checkpoint replay counter). */
        std::uint64_t subPulled = 0;
        /** Arrived-but-unstarted requests (arrival cycles, FIFO). */
        std::deque<Cycles> queue;
        TenantServingStats stats;
    };

    /** Draw the tenant's next arrival; sets exhausted at the window
     *  end. */
    void drawNext(TenantRt& t);
    /** Move every arrival with time <= now into its tenant's queue. */
    void pump(Cycles now);
    /** Select and dequeue the next request; false when fully drained. */
    bool startNextRequest(Cycles now);

    const ServingWorkload& workload_;
    std::vector<TenantRt> tenants_;

    static constexpr std::uint32_t kNoTenant = ~0u;
    /** Request currently being emitted. */
    std::uint32_t curTenant_ = kNoTenant;
    Cycles curArrival_ = 0;
    std::uint32_t curLeft_ = 0;
    /** True until the request's first access (carries notBefore). */
    bool curFirst_ = false;
    /** Fully emitted requests awaiting onRetire (tenant, arrival). */
    std::deque<std::pair<std::uint32_t, Cycles>> inflight_;
    /** Core clock at the last next() call (1-arg fallback only). */
    Cycles lastNow_ = 0;
};

class ServingWorkload final : public Workload
{
  public:
    /**
     * @param epoch_cycles the runtime's epoch length; tenant churn
     *        windows are specified in epochs and converted here.
     */
    ServingWorkload(ServingConfig cfg, Cycles epoch_cycles);

    std::string name() const override { return "serving"; }

    std::unique_ptr<AccessGenerator>
    makeGenerator(CoreId core) const override;

    void hashExtra(ckpt::Writer& w) const override;

    const ServingConfig& serving() const { return cfg_; }
    Cycles horizon() const { return cfg_.horizonCycles; }
    Cycles epochCycles() const { return epochCycles_; }

    /** Tenant activity window in cycles: [start, end). */
    Cycles
    activeStart(std::size_t tenant) const
    {
        return windows_[tenant].first;
    }
    Cycles
    activeEnd(std::size_t tenant) const
    {
        return windows_[tenant].second;
    }

    /** Which tenant owns stream `sid` (index into streamConfigs()). */
    std::uint32_t streamTenant(std::size_t sid) const
    {
        return owners_[sid];
    }

    /** Tenant-order view of the sub-workloads (for generators). */
    const Workload& sub(std::size_t tenant) const
    {
        return *subs_[tenant];
    }

  protected:
    void doPrepare() override;

  private:
    friend class ServingGenerator;

    ServingConfig cfg_;
    Cycles epochCycles_;
    std::vector<std::unique_ptr<Workload>> subs_;
    /** Per-tenant [start, end) activity window in cycles. */
    std::vector<std::pair<Cycles, Cycles>> windows_;
    /** Stream index -> owning tenant. */
    std::vector<std::uint32_t> owners_;
};

} // namespace ndpext

#endif // NDPEXT_SERVING_SERVING_WORKLOAD_H
