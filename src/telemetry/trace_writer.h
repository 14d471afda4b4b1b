/**
 * @file
 * Chrome/Perfetto trace-event exporter (the JSON "Trace Event Format").
 *
 * The writer renders each event into its output stream as it is
 * emitted, building {"displayTimeUnit":"ms","traceEvents":[...]} -- a
 * file that loads directly in https://ui.perfetto.dev or
 * chrome://tracing. The header is written at construction, each event
 * after a ",\n" separator (none before the first), and footer() closes
 * the array; the owner appends it when it writes the final file.
 * Timestamps are simulated core cycles written into the format's
 * microsecond field (1 cycle == 1 "us" of trace time), so track lengths
 * are proportional to simulated time and the trace is bit-identical
 * across runs.
 *
 * Track layout (pid/tid are synthetic):
 *   pid 1 "runtime"  -- epoch spans, reconfiguration/fault instants
 *   pid 3 "packets"  -- tid = core: sampled per-packet stage slices
 *   pid 4 "requests" -- tid = tenant: exemplar request span trees,
 *                       flow-linked arrival -> start -> done
 *
 * Event categories ("cat"): "epoch", "runtime", "fault",
 * "packet", "request". The ctest schema check (tools/ndpext_report
 * check) pins the exact field set.
 */

#ifndef NDPEXT_TELEMETRY_TRACE_WRITER_H
#define NDPEXT_TELEMETRY_TRACE_WRITER_H

#include <cstdint>
#include <ostream>
#include <string>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class TraceWriter
{
  public:
    /** Well-known synthetic process ids (see file comment). */
    static constexpr std::uint32_t kPidRuntime = 1;
    static constexpr std::uint32_t kPidPackets = 3;
    static constexpr std::uint32_t kPidRequests = 4;

    /** Writes the file header to `os`, which must outlive the writer. */
    explicit TraceWriter(std::ostream& os);

    /** Complete span (ph "X"): [ts, ts+dur) on (pid, tid). */
    void completeSpan(const std::string& cat, const std::string& name,
                      std::uint32_t pid, std::uint32_t tid, Cycles ts,
                      Cycles dur, const std::string& args_json = "");

    /** Instant event (ph "i", scope "g"). */
    void instant(const std::string& cat, const std::string& name,
                 std::uint32_t pid, std::uint32_t tid, Cycles ts,
                 const std::string& args_json = "");

    /** Counter event (ph "C"): args must be {"name":value,...}. */
    void counter(const std::string& name, std::uint32_t pid, Cycles ts,
                 const std::string& args_json);

    /**
     * Flow events (ph "s"/"t"/"f") -- arrows linking spans across
     * tracks. All three phases of one arrow share `id`; the end is
     * emitted with "bp":"e" so the arrow binds to the enclosing slice.
     */
    void flowStart(const std::string& cat, const std::string& name,
                   std::uint32_t pid, std::uint32_t tid, Cycles ts,
                   std::uint64_t id);
    void flowStep(const std::string& cat, const std::string& name,
                  std::uint32_t pid, std::uint32_t tid, Cycles ts,
                  std::uint64_t id);
    void flowEnd(const std::string& cat, const std::string& name,
                 std::uint32_t pid, std::uint32_t tid, Cycles ts,
                 std::uint64_t id);

    /** Metadata: names a process/thread track in the viewer. */
    void processName(std::uint32_t pid, const std::string& name);
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string& name);

    /** The text that closes the file after the last event. */
    const char* footer() const { return events_ == 0 ? "]}\n" : "\n]}\n"; }

    /**
     * Checkpoint pass: the event count, which decides the next
     * separator. The rendered text travels with the owner's output.
     */
    void checkpoint(ckpt::Archive& ar) { ar.u64(events_); }

  private:
    /** Separator plus the fields every event carries. */
    void begin(char ph, const std::string& cat, const std::string& name,
               std::uint32_t pid, std::uint32_t tid, Cycles ts);
    /** Optional args object, then the closing brace. */
    void end(const std::string& args_json);
    void flow(char ph, const std::string& cat, const std::string& name,
              std::uint32_t pid, std::uint32_t tid, Cycles ts,
              std::uint64_t id);

    std::ostream& os_;
    std::uint64_t events_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_TRACE_WRITER_H
