/**
 * @file
 * End-to-end serving-request tracing with tail-based exemplar sampling.
 *
 * Every serving request carries an implicit trace context on its core:
 * the core accumulates causal stage cycles from arrival to completion --
 * queue wait (arrival to first issue), compute, L1 pipeline, and the
 * stall attribution over the blocking packets' service breakdowns
 * (stream-cache metadata lookup, NoC intra/inter hops, DRAM-cache
 * service, CXL-link + ext-memory backend service, MSHR queueing). The
 * accounting reuses the core's exact largest-remainder stall split, so
 * the integer stage cycles of a completed RequestTraceRecord sum
 * EXACTLY to its latency (done - arrival); tests/test_request_trace.cc
 * pins the identity.
 *
 * Completed records land in per-core RequestTraceBuffers and are drained
 * at epoch barriers in core-id order -- the same discipline as the
 * packet sampler -- so the drain order, and everything derived from it,
 * is bit-identical across runs and across kill+resume.
 *
 * Tail-based exemplar sampling: per tenant and per epoch the collector
 * keeps the K slowest requests plus a size-U uniform sample (reservoir
 * sampling with a counter-hashed deterministic RNG -- no global RNG
 * state, no wall clock), so p99 exemplars are always retained at
 * bounded memory regardless of request count. At each epoch barrier
 * the epoch's exemplars are rendered and the reservoirs emptied: as
 * flow-linked span trees into the Perfetto writer (pid 4 "requests",
 * one track per tenant; the child stage slices are an attribution tree
 * laid out sequentially, not the true interleaving) and as JSONL lines
 * into the collector's output stream (<prefix>.exemplars.jsonl, schema
 * in DESIGN.md section 6).
 *
 * Observer-only: nothing here feeds back into timing, placement or RNG
 * state; stats/stdout are byte-identical with tracing on or off.
 */

#ifndef NDPEXT_TELEMETRY_REQUEST_TRACE_H
#define NDPEXT_TELEMETRY_REQUEST_TRACE_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"
#include "telemetry/trace_writer.h"

namespace ndpext {

/** One completed request's causal stage breakdown (cycles). */
struct RequestTraceRecord
{
    std::uint32_t tenant = 0;
    CoreId core = 0;
    /** Arrival cycle (queue entry). */
    Cycles arrival = 0;
    /** Cycle the core began executing the first access. */
    Cycles start = 0;
    /** Completion cycle (final miss landed). */
    Cycles done = 0;

    /** Stage cycles; invariant: stageSum() == latency(). */
    Cycles queueWait = 0;
    Cycles compute = 0;
    Cycles l1 = 0;
    Cycles metadata = 0;
    Cycles icnIntra = 0;
    Cycles icnInter = 0;
    Cycles dramCache = 0;
    Cycles extMem = 0;
    Cycles mshrQueue = 0;

    Cycles latency() const { return done - arrival; }

    Cycles
    stageSum() const
    {
        return queueWait + compute + l1 + metadata + icnIntra + icnInter
            + dramCache + extMem + mshrQueue;
    }
};

/**
 * Sink handed to one core: the core pushes every completed request;
 * the system drains it at barriers, so it is empty at every snapshot.
 */
struct RequestTraceBuffer
{
    std::vector<RequestTraceRecord> records;

    void push(const RequestTraceRecord& r) { records.push_back(r); }
};

class RequestTraceCollector
{
  public:
    struct Params
    {
        /** Slowest requests retained per tenant per epoch. */
        std::uint64_t slowK = 8;
        /** Uniform-sample size per tenant per epoch. */
        std::uint64_t uniformK = 8;
    };

    /** Static per-tenant facts (exemplar lines, track names). */
    struct TenantMeta
    {
        std::string name;
        bool reserved = false;
        Cycles sloCycles = 0;
    };

    /** Exemplar lines render into `os`, which must outlive the collector. */
    RequestTraceCollector(const Params& params, std::ostream& os)
        : p_(params), os_(os)
    {
    }

    RequestTraceCollector(const RequestTraceCollector&) = delete;
    RequestTraceCollector& operator=(const RequestTraceCollector&) = delete;

    /**
     * Arm the collector: one buffer per core, tenant metadata, and the
     * trace writer exemplar spans are emitted into (may be null for
     * JSONL-only collection). Names the pid-4 tracks.
     */
    void init(std::uint32_t num_cores, std::vector<TenantMeta> tenants,
              TraceWriter* trace);

    /** True once init() armed it (buffers exist). */
    bool active() const { return !buffers_.empty(); }

    /** The buffer core `c` writes into (null when inactive). */
    RequestTraceBuffer* buffer(CoreId c);

    /**
     * Barrier-side: feed every new completed record into its tenant's
     * epoch reservoir, in core-id order, and clear the buffers.
     */
    void drain();

    /**
     * Epoch barrier: select this epoch's exemplars (slow-K first, then
     * the uniform sample minus duplicates), render their span trees,
     * flow events and JSONL lines, and reset the reservoirs for the
     * next epoch.
     */
    void finalizeEpoch(std::uint64_t epoch);

    /**
     * Checkpoint pass: the flow-id counter. Snapshots are taken after
     * the epoch's drain and finalize, so the buffers and reservoirs are
     * empty (asserted); params and tenant metadata are reconstructed by
     * the restoring process (they are part of the config hash).
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    struct Reservoir
    {
        /** Sorted: latency desc, then (arrival, core) asc. */
        std::vector<RequestTraceRecord> slow;
        std::vector<RequestTraceRecord> uniform;
        /** Completed requests seen this epoch. */
        std::uint64_t count = 0;
    };

    void offer(const RequestTraceRecord& r);
    /** Render one exemplar: its span tree, flow events and JSONL line. */
    void exportExemplar(const RequestTraceRecord& r, std::uint64_t epoch,
                        bool slow);

    Params p_;
    std::ostream& os_;
    std::vector<TenantMeta> tenants_;
    TraceWriter* trace_ = nullptr;
    std::vector<std::unique_ptr<RequestTraceBuffer>> buffers_;
    std::vector<Reservoir> cur_;
    std::uint64_t nextFlowId_ = 1;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_REQUEST_TRACE_H
