/**
 * @file
 * Telemetry facade: one object owning the three observability sinks --
 * the MetricRegistry (epoch time-series), the TraceWriter (Perfetto
 * trace), and the DecisionLog (runtime-decision replay) -- plus the
 * per-core packet-sample buffers the cores fill as they step.
 *
 * Contract (DESIGN.md §6): telemetry is OBSERVER-ONLY. Attaching it must
 * never change a RunResult: metrics are pull-mode reads taken at epoch
 * barriers; packet samples are copies of completed packets into per-core
 * buffers drained at barriers in core-id order; decisions are recorded
 * by the runtime at barriers. Nothing here feeds back into timing,
 * placement, or RNG state, so a run is bit-identical with telemetry on
 * or off.
 *
 * Zero-cost when disabled: components hold a null Telemetry pointer by
 * default and every hook is a single pointer test on a path that already
 * performs a DRAM access (null-sink fast path). The only per-access hook
 * is the core's L1-miss sampler; everything else runs at epoch barriers.
 */

#ifndef NDPEXT_TELEMETRY_TELEMETRY_H
#define NDPEXT_TELEMETRY_TELEMETRY_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "telemetry/decision_log.h"
#include "telemetry/metric_registry.h"
#include "telemetry/request_trace.h"
#include "telemetry/trace_writer.h"

namespace ndpext {

struct TelemetryConfig
{
    /**
     * Output path prefix; writeAll() emits <prefix>.metrics.jsonl,
     * <prefix>.trace.json, <prefix>.decisions.jsonl and -- when request
     * tracing is on -- <prefix>.exemplars.jsonl. Empty = collect in
     * memory only (tests; determinism cross-checks).
     */
    std::string outPrefix;
    /** Sample every Nth L1 miss per core into the trace (0 = off). */
    std::uint64_t packetSampleEvery = 64;
    /** Epoch ring-buffer capacity (oldest epochs drop beyond this). */
    std::size_t ringCapacity = 4096;
    /** Packet-latency histogram range in cycles (overflow bin beyond). */
    double latencyHistMax = 20000.0;
    std::size_t latencyHistBuckets = 200;

    /** End-to-end request tracing (serving runs only). */
    bool traceRequests = false;
    /** Slowest exemplars retained per tenant per epoch. */
    std::uint64_t traceSlowK = 8;
    /** Uniform exemplar sample per tenant per epoch. */
    std::uint64_t traceUniformK = 8;
    /** Exemplar-reservoir hash seed. */
    std::uint64_t traceSeed = 0x7ACE5EED;
};

/** One sampled memory request, reconstructed from its LatencyBreakdown. */
struct PacketSample
{
    CoreId core = 0;
    StreamId sid = 0;
    /** Issue cycle at the core (span start in the trace). */
    Cycles start = 0;
    /** Stage cycles, same buckets as LatencyBreakdown. */
    Cycles metadata = 0;
    Cycles icnIntra = 0;
    Cycles icnInter = 0;
    Cycles dramCache = 0;
    Cycles extMem = 0;

    Cycles
    total() const
    {
        return metadata + icnIntra + icnInter + dramCache + extMem;
    }

    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.u32(core);
        ar.u32(sid);
        ar.u64(start);
        ar.u64(metadata);
        ar.u64(icnIntra);
        ar.u64(icnInter);
        ar.u64(dramCache);
        ar.u64(extMem);
    }
};

/**
 * Sample sink handed to one core. The core calls tick() once per L1
 * miss and record() when tick() said so; the system drains it at
 * barriers (no core runs across a barrier).
 */
struct PacketSampleBuffer
{
    std::uint64_t every = 0;
    std::uint64_t seen = 0;
    std::vector<PacketSample> samples;

    /** True if the current miss should be recorded. */
    bool
    tick()
    {
        return every != 0 && (seen++ % every) == 0;
    }

    void record(PacketSample s) { samples.push_back(s); }
};

class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig& config);

    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    const TelemetryConfig& config() const { return cfg_; }

    MetricRegistry& metrics() { return metrics_; }
    TraceWriter& trace() { return trace_; }
    DecisionLog& decisions() { return decisions_; }
    const MetricRegistry& metrics() const { return metrics_; }
    const TraceWriter& trace() const { return trace_; }
    const DecisionLog& decisions() const { return decisions_; }

    /** Create one sample buffer per core (before the run starts). */
    void initPacketSampling(std::uint32_t num_cores);

    /** The buffer core `c` writes into (null if sampling is off). */
    PacketSampleBuffer* packetBuffer(CoreId c);

    /**
     * Barrier-side: move new per-core samples (since the last drain)
     * into the trace and the epoch latency histogram, in core-id order.
     */
    void drainPacketSamples();

    /** Every drained sample, for tests and the final trace flush. */
    const std::vector<PacketSample>& drainedSamples() const
    {
        return drained_;
    }

    /** Cumulative latency histogram over drained samples. */
    const Histogram& packetLatencyHist() const { return latencyHist_; }

    /**
     * Arm end-to-end request tracing (no-op unless the config enables
     * it): one buffer per core, one reservoir per tenant, exemplar
     * spans into the trace writer. Serving runs only.
     */
    void initRequestTracing(
        std::uint32_t num_cores,
        std::vector<RequestTraceCollector::TenantMeta> tenants);

    /** The request-trace buffer core `c` writes into (null = off). */
    RequestTraceBuffer* requestBuffer(CoreId c);

    /** Barrier-side: move completed requests into their reservoirs. */
    void drainRequestTraces();

    /** Epoch barrier: select + export this epoch's exemplars. */
    void finalizeRequestEpoch(std::uint64_t epoch);

    RequestTraceCollector& requestTrace() { return reqTrace_; }
    const RequestTraceCollector& requestTrace() const { return reqTrace_; }

    /** Snapshot all metrics at an epoch barrier. */
    void sampleEpoch(std::uint64_t epoch, Cycles cycles);

    /**
     * Move everything accumulated so far out of memory into
     * <prefix>.{metrics,trace,decisions,exemplars}.part side files (one
     * rendered line per unit, appended) and drop the in-memory copies,
     * so the next checkpoint image stays flat no matter how many epochs
     * ran. Called right before each snapshot; writeAll() stitches the
     * side files back in front of the in-memory remainder. No-op
     * (returns true) when outPrefix is empty.
     */
    bool flushToDisk(std::string* error = nullptr);

    /**
     * Write <prefix>.{metrics.jsonl, trace.json, decisions.jsonl} and,
     * when request tracing is armed, <prefix>.exemplars.jsonl; flushed
     * .part side files are stitched in and removed on success.
     * No-op (returns true) when outPrefix is empty; returns false and
     * fills `error` (if non-null) on the first I/O failure.
     */
    bool writeAll(std::string* error = nullptr);

    /**
     * Checkpoint pass. Loading expects the restoring process to have
     * constructed this object with the same config and called
     * initPacketSampling() with the same core count; everything the
     * sinks accumulated (ring, trace events, decisions, histogram,
     * sample buffers and drain cursors) is then replaced wholesale.
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    void emitPacketTrace(const PacketSample& s);
    std::string partPath(const char* suffix) const;
    bool appendPart(const char* suffix,
                    const std::function<void(std::ostream&)>& writer,
                    std::string* error);
    bool openPart(const char* suffix, std::uint64_t expected_lines,
                  std::ifstream* is, std::string* error) const;
    void truncatePartFiles();
    void removePartFiles() const;

    TelemetryConfig cfg_;
    MetricRegistry metrics_;
    TraceWriter trace_;
    DecisionLog decisions_;
    RequestTraceCollector reqTrace_;
    Histogram latencyHist_;
    std::vector<std::unique_ptr<PacketSampleBuffer>> buffers_;
    /** Per-core drain watermark into buffers_[c]->samples. */
    std::vector<std::size_t> drainedUpTo_;
    std::vector<PacketSample> drained_;
    /** Samples ever drained (metric source; survives flushToDisk). */
    std::uint64_t drainedCount_ = 0;
    /** First flushToDisk truncates stale .part files, later ones append. */
    bool partFresh_ = true;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_TELEMETRY_H
