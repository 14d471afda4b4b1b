/**
 * @file
 * Telemetry facade: one object owning the four outputs -- the epoch
 * metric series (MetricRegistry), the Perfetto trace (TraceWriter), the
 * runtime-decision log (DecisionLog) and the request exemplars
 * (RequestTraceCollector) -- plus the per-core packet-sample buffers
 * the cores fill as they step.
 *
 * Each sink renders a record into its output's text the moment it is
 * emitted; the text is the record's only representation. Every output
 * is then handled by one mechanism: flushToDisk() appends the pending
 * text to a <prefix><stem>.part side file and counts its bytes,
 * checkpoint() carries the pending text and that count, and writeAll()
 * writes side file + pending text (+ the trace footer) to the final
 * file.
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
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "sim/breakdown.h"
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

    /** End-to-end request tracing (serving runs only). */
    bool traceRequests = false;
    /** Slowest exemplars retained per tenant per epoch. */
    std::uint64_t traceSlowK = 8;
    /** Uniform exemplar sample per tenant per epoch. */
    std::uint64_t traceUniformK = 8;
};

/** One sampled memory request: where and when, and its stage split. */
struct PacketSample
{
    CoreId core = 0;
    StreamId sid = 0;
    /** Issue cycle at the core (span start in the trace). */
    Cycles start = 0;
    LatencyBreakdown bd;
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

    void record(const PacketSample& s) { samples.push_back(s); }
};

class Telemetry
{
  public:
    /** The four outputs, in the order writeAll() writes them. */
    enum Output : std::uint8_t
    {
        kMetrics,
        kTrace,
        kDecisions,
        kExemplars,
    };
    static constexpr std::size_t kNumOutputs = 4;

    explicit Telemetry(const TelemetryConfig& config);

    Telemetry(const Telemetry&) = delete;
    Telemetry& operator=(const Telemetry&) = delete;

    const TelemetryConfig& config() const { return cfg_; }

    MetricRegistry& metrics() { return metrics_; }
    TraceWriter& trace() { return trace_; }
    DecisionLog& decisions() { return decisions_; }

    /**
     * Output `o`'s text rendered since its last flush, valid until the
     * next record or flush. With an empty prefix nothing is flushed, so
     * this is the whole output so far (the trace lacks trace().footer()).
     */
    std::string_view pending(Output o) const { return out_[o].text.view(); }

    /** Create one sample buffer per core (before the run starts). */
    void initPacketSampling(std::uint32_t num_cores);

    /** The buffer core `c` writes into (null if sampling is off). */
    PacketSampleBuffer* packetBuffer(CoreId c);

    /**
     * Barrier-side: render every buffered sample into the trace and add
     * it to the latency histogram, in core-id order, then empty the
     * buffers.
     */
    void drainPacketSamples();

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

    /** Epoch barrier: select + render this epoch's exemplars. */
    void finalizeRequestEpoch(std::uint64_t epoch);

    /** Snapshot all metrics at an epoch barrier. */
    void sampleEpoch(std::uint64_t epoch, Cycles cycles);

    /**
     * Append each output's pending text to its <prefix><stem>.part side
     * file (.metrics, .trace, .decisions, .exemplars) and clear it, so
     * the next checkpoint image stays flat no matter how many epochs
     * ran. A side file is truncated first while nothing has been
     * flushed to it. Called right before each snapshot. A failed append
     * keeps that output's text and byte count and returns false with
     * `error` (if non-null) filled. No-op (returns true) when outPrefix
     * is empty.
     */
    bool flushToDisk(std::string* error = nullptr);

    /**
     * Write <prefix>.{metrics.jsonl, trace.json, decisions.jsonl} and,
     * when request tracing is armed, <prefix>.exemplars.jsonl: each is
     * its side file, then its pending text, then (trace only) the
     * footer. Every side file must hold exactly its flushed byte count,
     * or nothing is written; the side files are removed on success.
     * No-op (returns true) when outPrefix is empty; returns false and
     * fills `error` (if non-null) on the first failure.
     */
    bool writeAll(std::string* error = nullptr);

    /**
     * Checkpoint pass: per output the pending text and flushed byte
     * count, the trace's event count, the latency histogram, each
     * core's sample counter and the exemplar flow-id counter. Snapshots
     * follow the barrier's drains, so the sample buffers, request
     * buffers and reservoirs are empty (asserted, not stored). Loading
     * expects this object constructed with the same config and armed
     * with the same cores and tenants; it replaces the pending text and
     * cuts each side file back to its byte count (a missing or shorter
     * side file asserts).
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    /**
     * One output: the text rendered since the last flush, and the bytes
     * already appended to <prefix><stem>.part.
     */
    struct OutputFile
    {
        OutputFile(const char* s, const char* e) : stem(s), ext(e) {}

        const char* stem;
        const char* ext;
        std::ostringstream text;
        std::uint64_t flushed = 0;
    };

    void emitPacketTrace(const PacketSample& s);
    std::string partPath(const OutputFile& o) const;

    TelemetryConfig cfg_;
    OutputFile out_[kNumOutputs] = {
        {".metrics", ".jsonl"},
        {".trace", ".json"},
        {".decisions", ".jsonl"},
        {".exemplars", ".jsonl"},
    };
    MetricRegistry metrics_;
    TraceWriter trace_;
    DecisionLog decisions_;
    RequestTraceCollector reqTrace_;
    Histogram latencyHist_;
    std::vector<std::unique_ptr<PacketSampleBuffer>> buffers_;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_TELEMETRY_H
