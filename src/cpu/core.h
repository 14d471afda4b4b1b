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
#include "sim/stats.h"
#include "telemetry/request_trace.h"

namespace ndpext {

struct PacketSampleBuffer; // telemetry/telemetry.h

/**
 * Top-down split of a core's memory stall cycles (Fig. 2(a) buckets plus
 * an explicit MSHR-full queueing bucket). Each stall window is attributed
 * proportionally over the blocking packet's LatencyBreakdown with
 * deterministic largest-remainder rounding, so the integer buckets sum
 * EXACTLY to the window; memStallCycles() is their sum.
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

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t l1Hits() const { return l1Hits_; }
    Cycles computeCycles() const { return computeCycles_; }
    /** Memory stall cycles: the sum of the stall buckets. */
    Cycles memStallCycles() const { return stall_.total(); }
    /** Cycles spent waiting for open-loop request arrivals
     *  (Access::notBefore ahead of the core clock); always 0 for
     *  closed-loop workloads. */
    Cycles idleCycles() const { return idleCycles_; }
    /** L1 issue/hit pipeline cycles (every access pays l1HitCycles). */
    Cycles l1Cycles() const { return accesses_ * params_.l1HitCycles; }

    /**
     * Top-down stall attribution. Invariant (pinned by test_topdown):
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

    /**
     * Declare the core's 13 counters under `prefix`: accesses, l1Hits,
     * cycles, the CPI-stack buckets (compute/l1/memStall/idle) and the
     * six stall buckets. NdpSystem declares every core under "cores"
     * (machine totals via duplicate-name summing), under its
     * "stack.<s>", and once more as the per-core "coreN" rows.
     */
    void counters(Counters& out, const std::string& prefix) const;

    /**
     * Attach a telemetry packet-sample sink (null detaches). The buffer
     * must be private to this core; the core records every Nth
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
     * cycle-exactly. Observer-only; must be private to this core.
     */
    void setRequestTraceSink(RequestTraceBuffer* sink) { reqSink_ = sink; }

    /**
     * Checkpoint pass. MSHR slots keep only what later stall
     * attribution reads: completion time, owning sid and service
     * breakdown.
     */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.u64(now_);
        ar.u64(accesses_);
        ar.u64(l1Hits_);
        ar.u64(computeCycles_);
        ar.u64(idleCycles_);
        ar.u64(stall_.metadata);
        ar.u64(stall_.icnIntra);
        ar.u64(stall_.icnInter);
        ar.u64(stall_.dramCache);
        ar.u64(stall_.extMem);
        ar.u64(stall_.mshrQueue);
        ar.seq(streamStall_, [&](Cycles& c) { ar.u64(c); });
        ar.u64(noStreamStall_);
        l1d_.checkpoint(ar);
        ar.expect(mshr_.size(), "MSHR count mismatch");
        for (MshrSlot& slot : mshr_) {
            ar.u64(slot.free);
            ar.u32(slot.pkt.sid);
            ar.bd(slot.pkt.bd);
        }
        ar.b(reqOpen_);
        if (ar.loading()) {
            req_ = RequestTraceRecord{};
            req_.core = id_;
        }
        ar.u32(req_.tenant);
        ar.u64(req_.arrival);
        ar.u64(req_.start);
        ar.u64(req_.queueWait);
        ar.u64(req_.compute);
        ar.u64(req_.l1);
        ar.u64(req_.metadata);
        ar.u64(req_.icnIntra);
        ar.u64(req_.icnInter);
        ar.u64(req_.dramCache);
        ar.u64(req_.extMem);
        ar.u64(req_.mshrQueue);
    }

  private:
    /**
     * One MSHR: completion time plus the occupying packet (for stall
     * attribution). Each miss through the slot overwrites the packet,
     * so its identity and service breakdown stay readable until the
     * slot is reused. A slot that never carried a miss holds a default
     * packet: no stream, no recorded service.
     */
    struct MshrSlot
    {
        Cycles free = 0;
        Packet pkt;
    };

    /**
     * Account a stall window of `wait` cycles blamed on `blocking`:
     * split the window over the blocking packet's breakdown buckets
     * (largest-remainder rounding; mshrQueue when the slot has no
     * recorded service), and attribute it to the blocking packet's
     * stream id.
     */
    void attributeStall(Cycles wait, const MshrSlot& blocking);

    CoreId id_;
    CoreParams params_;
    MemSink& mem_;
    SetAssocCache l1d_;

    Cycles now_ = 0;
    /** In-flight misses (one entry per MSHR). */
    std::vector<MshrSlot> mshr_;
    std::uint64_t accesses_ = 0;
    std::uint64_t l1Hits_ = 0;
    Cycles computeCycles_ = 0;
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
