#include "telemetry/trace_writer.h"

#include <sstream>

#include "common/logging.h"
#include "telemetry/json_out.h"

namespace ndpext {

void
TraceWriter::completeSpan(const std::string& cat, const std::string& name,
                          std::uint32_t pid, std::uint32_t tid, Cycles ts,
                          Cycles dur, const std::string& args_json)
{
    events_.push_back({'X', cat, name, pid, tid, ts, dur, 0, args_json});
}

void
TraceWriter::instant(const std::string& cat, const std::string& name,
                     std::uint32_t pid, std::uint32_t tid, Cycles ts,
                     const std::string& args_json)
{
    events_.push_back({'i', cat, name, pid, tid, ts, 0, 0, args_json});
}

void
TraceWriter::counter(const std::string& name, std::uint32_t pid, Cycles ts,
                     const std::string& args_json)
{
    events_.push_back({'C', "metric", name, pid, 0, ts, 0, 0, args_json});
}

void
TraceWriter::flowStart(const std::string& cat, const std::string& name,
                       std::uint32_t pid, std::uint32_t tid, Cycles ts,
                       std::uint64_t id)
{
    events_.push_back({'s', cat, name, pid, tid, ts, 0, id, ""});
}

void
TraceWriter::flowStep(const std::string& cat, const std::string& name,
                      std::uint32_t pid, std::uint32_t tid, Cycles ts,
                      std::uint64_t id)
{
    events_.push_back({'t', cat, name, pid, tid, ts, 0, id, ""});
}

void
TraceWriter::flowEnd(const std::string& cat, const std::string& name,
                     std::uint32_t pid, std::uint32_t tid, Cycles ts,
                     std::uint64_t id)
{
    events_.push_back({'f', cat, name, pid, tid, ts, 0, id, ""});
}

void
TraceWriter::processName(std::uint32_t pid, const std::string& name)
{
    events_.push_back({'M', "__metadata", "process_name", pid, 0, 0, 0, 0,
                       "{\"name\":" + jsonout::str(name) + "}"});
}

void
TraceWriter::threadName(std::uint32_t pid, std::uint32_t tid,
                        const std::string& name)
{
    events_.push_back({'M', "__metadata", "thread_name", pid, tid, 0, 0, 0,
                       "{\"name\":" + jsonout::str(name) + "}"});
}

void
TraceWriter::renderEvent(std::ostream& os, const Event& e)
{
    os << "{\"ph\":\"" << e.ph << "\",\"cat\":" << jsonout::str(e.cat)
       << ",\"name\":" << jsonout::str(e.name) << ",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts;
    if (e.ph == 'X') {
        os << ",\"dur\":" << e.dur;
    }
    if (e.ph == 'i') {
        os << ",\"s\":\"g\"";
    }
    if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
        os << ",\"id\":" << e.id;
        if (e.ph == 'f') {
            os << ",\"bp\":\"e\"";
        }
    }
    if (!e.argsJson.empty()) {
        os << ",\"args\":" << e.argsJson;
    }
    os << "}";
}

void
TraceWriter::write(std::ostream& os) const
{
    NDP_ASSERT(flushed_ == 0);
    std::istringstream none;
    writeStitched(os, none);
}

void
TraceWriter::writeStitched(std::ostream& os, std::istream& part) const
{
    const std::size_t total = flushed_ + events_.size();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::size_t i = 0;
    std::string line;
    for (std::uint64_t n = 0; n < flushed_; ++n) {
        NDP_ASSERT(std::getline(part, line),
                   "trace side file holds fewer than ", flushed_, " events");
        os << line;
        if (++i != total) {
            os << ",";
        }
        os << "\n";
    }
    for (const Event& e : events_) {
        renderEvent(os, e);
        if (++i != total) {
            os << ",";
        }
        os << "\n";
    }
    os << "]}\n";
}

void
TraceWriter::flushEventsTo(std::ostream& os)
{
    for (const Event& e : events_) {
        renderEvent(os, e);
        os << "\n";
    }
    flushed_ += events_.size();
    events_.clear();
}

void
TraceWriter::checkpoint(ckpt::Archive& ar)
{
    ar.u64(flushed_);
    ar.seq(events_, [&](Event& e) {
        ar.u8(e.ph);
        ar.str(e.cat);
        ar.str(e.name);
        ar.u32(e.pid);
        ar.u32(e.tid);
        ar.u64(e.ts);
        ar.u64(e.dur);
        ar.u64(e.id);
        ar.str(e.argsJson);
    });
}

} // namespace ndpext
