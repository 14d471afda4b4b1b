/**
 * @file
 * Chrome/Perfetto trace-event exporter (the JSON "Trace Event Format").
 *
 * The writer buffers events and serializes them as
 * {"displayTimeUnit":"ms","traceEvents":[...]} -- a file that loads
 * directly in https://ui.perfetto.dev or chrome://tracing. Timestamps are
 * simulated core cycles written into the format's microsecond field (1
 * cycle == 1 "us" of trace time), so track lengths are proportional to
 * simulated time and the trace is bit-identical across runs.
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
 *
 * When checkpointing with a telemetry output prefix, already-emitted
 * events are flushed to a side file (<prefix>.trace.part, one rendered
 * event per line) before each snapshot so the checkpoint image does not
 * grow with run length; writeStitched() re-joins the flushed lines with
 * the in-memory remainder into a byte-identical final file.
 */

#ifndef NDPEXT_TELEMETRY_TRACE_WRITER_H
#define NDPEXT_TELEMETRY_TRACE_WRITER_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

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

    /** Total events emitted so far, flushed lines included. */
    std::size_t numEvents() const { return flushed_ + events_.size(); }

    /** Events already flushed out via flushEventsTo(). */
    std::uint64_t flushedEvents() const { return flushed_; }

    /** Serialize the whole trace; requires no prior flush. */
    void write(std::ostream& os) const;

    /**
     * Serialize with the flushedEvents() lines read from `part` (the
     * flushed per-event renderings, in emission order) stitched in front
     * of the in-memory remainder, one line at a time. Byte-identical to
     * what write() on a never-flushed writer with the same event
     * sequence would produce.
     */
    void writeStitched(std::ostream& os, std::istream& part) const;

    /**
     * Append one rendered line per buffered event to `os`, clear the
     * buffer and advance the flushed count. Keeps checkpoint images
     * flat across epochs; the owner persists the lines.
     */
    void flushEventsTo(std::ostream& os);

    /**
     * Checkpoint pass. The event list is replaced wholesale at restore
     * (it includes the metadata events the original process emitted, so
     * restore must run after this process's constructor-time metadata
     * would otherwise duplicate them -- the owner replaces, not merges).
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    struct Event
    {
        char ph = 'X';
        std::string cat;
        std::string name;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        Cycles ts = 0;
        Cycles dur = 0;
        std::uint64_t id = 0; ///< flow id (ph "s"/"t"/"f" only)
        std::string argsJson; ///< pre-rendered {"k":v} or empty
    };

    static void renderEvent(std::ostream& os, const Event& e);

    std::vector<Event> events_;
    std::uint64_t flushed_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_TRACE_WRITER_H
