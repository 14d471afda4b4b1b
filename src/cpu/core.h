/**
 * @file
 * In-order NDP core (Table II: 2 GHz, in-order, 32 kB L1I + 64 kB L1D).
 *
 * The core executes a stream of accesses from its generator: each access
 * first costs its computeCycles (the non-memory instructions preceding
 * it), then probes the private L1D. L1 hits cost l1HitCycles; misses
 * occupy an MSHR and overlap with further execution -- the core stalls
 * only when every MSHR is busy (or at the end of the run, to drain).
 * Dirty L1 evictions produce non-blocking writebacks. L1I is modelled as
 * always hitting (NDP kernels are small loops) and contributes only
 * static energy.
 */

#ifndef NDPEXT_CPU_CORE_H
#define NDPEXT_CPU_CORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/types.h"
#include "cpu/access_generator.h"
#include "sim/breakdown.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/stats.h"
#include "telemetry/request_trace.h"

namespace ndpext {

class MetricRegistry;      // telemetry/metric_registry.h
struct PacketSampleBuffer; // telemetry/telemetry.h

/**
 * Top-down split of a core's memory stall cycles (Fig. 2(a) buckets plus
 * an explicit MSHR-full queueing bucket). Each stall window is attributed
 * proportionally over the blocking packet's LatencyBreakdown with
 * deterministic largest-remainder rounding, so the integer buckets sum
 * EXACTLY to memStallCycles() (pinned by tests/test_topdown.cc).
 * `mshrQueue` absorbs wait cycles that cannot be blamed on a recorded
 * service breakdown (e.g. the blocking slot never carried a packet).
 */
struct CoreStallBreakdown
{
    Cycles metadata = 0;
    Cycles icnIntra = 0;
    Cycles icnInter = 0;
    Cycles dramCache = 0;
    Cycles extMem = 0;
    Cycles mshrQueue = 0;

    Cycles
    total() const
    {
        return metadata + icnIntra + icnInter + dramCache + extMem
            + mshrQueue;
    }

    void
    report(StatGroup& stats, const std::string& prefix) const
    {
        stats.add(prefix + ".metadata", static_cast<double>(metadata));
        stats.add(prefix + ".icnIntra", static_cast<double>(icnIntra));
        stats.add(prefix + ".icnInter", static_cast<double>(icnInter));
        stats.add(prefix + ".dramCache", static_cast<double>(dramCache));
        stats.add(prefix + ".extMem", static_cast<double>(extMem));
        stats.add(prefix + ".mshrQueue", static_cast<double>(mshrQueue));
    }
};

struct CoreParams
{
    Cycles l1HitCycles = 2;
    std::uint64_t l1dCapacityBytes = 64_KiB;
    std::uint32_t l1dWays = 4;
    std::uint32_t lineBytes = kCachelineBytes;
    /**
     * Outstanding L1 misses (MSHRs). The cores are in-order but the
     * paper's kernels are SIMD/unrolled streaming loops with substantial
     * memory-level parallelism; the core stalls only when all MSHRs are
     * busy. Set to 1 for strict stall-on-miss.
     */
    std::uint32_t mshrs = 8;
};

/** Completion of a request issued to the memory system. */
struct MemResult
{
    Cycles done = 0;
};

class InOrderCore
{
  public:
    /** L1 misses and dirty writebacks go to `mem` as Packets. */
    InOrderCore(CoreId id, const CoreParams& params, MemSink& mem);

    InOrderCore(const InOrderCore&) = delete;
    InOrderCore& operator=(const InOrderCore&) = delete;
    InOrderCore(InOrderCore&&) = default;

    /**
     * Execute the next access from `gen`.
     * @return false if the generator is exhausted; the core's clock is
     *         then advanced past all outstanding misses (drain; the
     *         drain wait is counted as memory stall like any other).
     */
    bool step(AccessGenerator& gen);

    CoreId id() const { return id_; }
    Cycles now() const { return now_; }

    /** Drop all L1 lines (used at reconfiguration invalidations). */
    void flushL1() { l1d_.invalidateAll(); }

    const SetAssocCache& l1dTags() const { return l1d_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l1Misses() const { return accesses_ - l1Hits_; }
    Cycles computeCycles() const { return computeCycles_; }
    Cycles memStallCycles() const { return memStallCycles_; }
    /** Cycles spent waiting for open-loop request arrivals
     *  (Access::notBefore ahead of the core clock); always 0 for
     *  closed-loop workloads. */
    Cycles idleCycles() const { return idleCycles_; }
    /** L1 issue/hit pipeline cycles (every access pays l1HitCycles). */
    Cycles l1Cycles() const { return accesses_ * params_.l1HitCycles; }

    /**
     * Top-down stall attribution. Invariant (pinned by test_topdown):
     *   stallBreakdown().total() == memStallCycles()
     *   now() == computeCycles() + l1Cycles() + memStallCycles()
     *            + idleCycles()
     */
    const CoreStallBreakdown& stallBreakdown() const { return stall_; }

    /** Stall cycles attributed to the blocking packet's stream id
     *  (0 for sids this core never waited on). */
    Cycles
    streamStallCycles(StreamId sid) const
    {
        return sid < streamStall_.size() ? streamStall_[sid] : 0;
    }
    /** Stall cycles blamed on non-stream (kNoStream) packets; together
     *  with the per-stream counts this sums exactly to
     *  memStallCycles(). */
    Cycles noStreamStallCycles() const { return noStreamStall_; }

    void report(StatGroup& stats, const std::string& prefix) const;

    /**
     * Register the CPI-stack series (compute/l1/stall buckets) under an
     * arbitrary prefix. NdpSystem calls this once with "cores" (machine
     * total via duplicate-name summing) and once with "stack.<s>" for
     * the core's stack, giving per-stack stacks for free.
     */
    void registerCpiMetrics(MetricRegistry& registry,
                            const std::string& prefix);

    /**
     * Attach a telemetry packet-sample sink (null detaches). The buffer
     * must be shard-private to this core; the core records every Nth
     * completed L1 miss (N = buffer's `every`). Observer-only: sampling
     * never alters timing.
     */
    void setTelemetrySink(PacketSampleBuffer* sink) { telSink_ = sink; }

    /**
     * Attach an end-to-end request-trace sink (null detaches). The core
     * then accumulates one RequestTraceRecord per serving request
     * (accesses carrying a tenant id, delimited by endOfRequest): queue
     * wait, compute, L1 pipeline, the exact largest-remainder stall
     * shares, and the completion tail split over the final packet's
     * service breakdown -- so the record's stage sum equals its latency
     * cycle-exactly. Observer-only; must be shard-private to this core.
     */
    void setRequestTraceSink(RequestTraceBuffer* sink) { reqSink_ = sink; }

    /** Registers aggregate series under "cores.*" (sums across cores). */
    void registerMetrics(MetricRegistry& registry);

    /** The core's private packet pool (engine telemetry). */
    const PacketPool& packetPool() const { return pool_; }

    /**
     * Checkpoint hooks. MSHR slots keep only what later stall
     * attribution reads (owning sid + service breakdown); their packets
     * are re-acquired from the restored pool, which also reconstructs
     * the pool's inUse count.
     */
    void
    serialize(ckpt::Writer& w) const
    {
        w.u64(now_);
        w.u64(accesses_);
        w.u64(l1Hits_);
        w.u64(computeCycles_);
        w.u64(memStallCycles_);
        w.u64(idleCycles_);
        w.u64(stall_.metadata);
        w.u64(stall_.icnIntra);
        w.u64(stall_.icnInter);
        w.u64(stall_.dramCache);
        w.u64(stall_.extMem);
        w.u64(stall_.mshrQueue);
        w.vecU64(streamStall_);
        w.u64(noStreamStall_);
        l1d_.serialize(w);
        pool_.serialize(w);
        w.u64(mshr_.size());
        for (const MshrSlot& slot : mshr_) {
            w.u64(slot.free);
            w.b(slot.pkt != nullptr);
            if (slot.pkt != nullptr) {
                w.u32(slot.pkt->sid);
                w.u64(slot.pkt->bd.metadata);
                w.u64(slot.pkt->bd.icnIntra);
                w.u64(slot.pkt->bd.icnInter);
                w.u64(slot.pkt->bd.dramCache);
                w.u64(slot.pkt->bd.extMem);
                w.u64(slot.pkt->bd.requests);
            }
        }
        w.b(reqOpen_);
        w.u32(req_.tenant);
        w.u64(req_.arrival);
        w.u64(req_.start);
        w.u64(req_.queueWait);
        w.u64(req_.compute);
        w.u64(req_.l1);
        w.u64(req_.metadata);
        w.u64(req_.icnIntra);
        w.u64(req_.icnInter);
        w.u64(req_.dramCache);
        w.u64(req_.extMem);
        w.u64(req_.mshrQueue);
    }

    void
    deserialize(ckpt::Reader& r)
    {
        now_ = r.u64();
        accesses_ = r.u64();
        l1Hits_ = r.u64();
        computeCycles_ = r.u64();
        memStallCycles_ = r.u64();
        idleCycles_ = r.u64();
        stall_.metadata = r.u64();
        stall_.icnIntra = r.u64();
        stall_.icnInter = r.u64();
        stall_.dramCache = r.u64();
        stall_.extMem = r.u64();
        stall_.mshrQueue = r.u64();
        streamStall_ = r.vecU64();
        noStreamStall_ = r.u64();
        l1d_.deserialize(r);
        pool_.deserialize(r);
        const std::uint64_t n = r.u64();
        NDP_ASSERT(n == mshr_.size(), "MSHR count mismatch");
        for (MshrSlot& slot : mshr_) {
            slot.free = r.u64();
            slot.pkt = nullptr;
            if (r.b()) {
                slot.pkt = pool_.acquire();
                slot.pkt->src = id_;
                slot.pkt->sid = static_cast<StreamId>(r.u32());
                slot.pkt->bd.metadata = r.u64();
                slot.pkt->bd.icnIntra = r.u64();
                slot.pkt->bd.icnInter = r.u64();
                slot.pkt->bd.dramCache = r.u64();
                slot.pkt->bd.extMem = r.u64();
                slot.pkt->bd.requests = r.u64();
            }
        }
        reqOpen_ = r.b();
        req_ = RequestTraceRecord{};
        req_.core = id_;
        req_.tenant = r.u32();
        req_.arrival = r.u64();
        req_.start = r.u64();
        req_.queueWait = r.u64();
        req_.compute = r.u64();
        req_.l1 = r.u64();
        req_.metadata = r.u64();
        req_.icnIntra = r.u64();
        req_.icnInter = r.u64();
        req_.dramCache = r.u64();
        req_.extMem = r.u64();
        req_.mshrQueue = r.u64();
    }

  private:
    /**
     * One MSHR: completion time plus the occupying packet (for stall
     * attribution). The packet is acquired from the core's pool on
     * first use and recycled in place on every later miss through this
     * slot, so its identity and service breakdown stay readable until
     * the slot is reused. Null until the slot first carries a miss.
     */
    struct MshrSlot
    {
        Cycles free = 0;
        Packet* pkt = nullptr;
    };

    /**
     * Account a stall window of `wait` cycles blamed on `blocking`:
     * bump memStallCycles_, split the window over the blocking packet's
     * breakdown buckets (largest-remainder rounding; mshrQueue when the
     * slot has no recorded service), and attribute it to the blocking
     * packet's stream id.
     */
    void attributeStall(Cycles wait, const MshrSlot& blocking);

    CoreId id_;
    CoreParams params_;
    MemSink& mem_;
    SetAssocCache l1d_;
    /** Pool behind the MSHR packets and writeback scratch packets. */
    PacketPool pool_;

    Cycles now_ = 0;
    /** In-flight misses (one entry per MSHR). */
    std::vector<MshrSlot> mshr_;
    std::uint64_t accesses_ = 0;
    std::uint64_t l1Hits_ = 0;
    Cycles computeCycles_ = 0;
    Cycles memStallCycles_ = 0;
    Cycles idleCycles_ = 0;
    CoreStallBreakdown stall_;
    /** Stall cycles per blocking stream id (resize-on-demand). */
    std::vector<Cycles> streamStall_;
    Cycles noStreamStall_ = 0;
    /** Telemetry sink (null = sampling off; the default). */
    PacketSampleBuffer* telSink_ = nullptr;
    /** Request-trace sink (null = request tracing off; the default). */
    RequestTraceBuffer* reqSink_ = nullptr;
    /** True while a traced serving request is in flight on this core. */
    bool reqOpen_ = false;
    /** The in-flight request's stage accumulator (valid iff reqOpen_). */
    RequestTraceRecord req_;
};

} // namespace ndpext

#endif // NDPEXT_CPU_CORE_H
