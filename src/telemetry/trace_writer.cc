#include "telemetry/trace_writer.h"

#include "telemetry/json_out.h"

namespace ndpext {

TraceWriter::TraceWriter(std::ostream& os) : os_(os)
{
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

void
TraceWriter::begin(char ph, const std::string& cat, const std::string& name,
                   std::uint32_t pid, std::uint32_t tid, Cycles ts)
{
    if (events_++ != 0) {
        os_ << ",\n";
    }
    os_ << "{\"ph\":\"" << ph << "\",\"cat\":" << jsonout::str(cat)
        << ",\"name\":" << jsonout::str(name) << ",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << ts;
}

void
TraceWriter::end(const std::string& args_json)
{
    if (!args_json.empty()) {
        os_ << ",\"args\":" << args_json;
    }
    os_ << "}";
}

void
TraceWriter::completeSpan(const std::string& cat, const std::string& name,
                          std::uint32_t pid, std::uint32_t tid, Cycles ts,
                          Cycles dur, const std::string& args_json)
{
    begin('X', cat, name, pid, tid, ts);
    os_ << ",\"dur\":" << dur;
    end(args_json);
}

void
TraceWriter::instant(const std::string& cat, const std::string& name,
                     std::uint32_t pid, std::uint32_t tid, Cycles ts,
                     const std::string& args_json)
{
    begin('i', cat, name, pid, tid, ts);
    os_ << ",\"s\":\"g\"";
    end(args_json);
}

void
TraceWriter::counter(const std::string& name, std::uint32_t pid, Cycles ts,
                     const std::string& args_json)
{
    begin('C', "metric", name, pid, 0, ts);
    end(args_json);
}

void
TraceWriter::flow(char ph, const std::string& cat, const std::string& name,
                  std::uint32_t pid, std::uint32_t tid, Cycles ts,
                  std::uint64_t id)
{
    begin(ph, cat, name, pid, tid, ts);
    os_ << ",\"id\":" << id;
    if (ph == 'f') {
        os_ << ",\"bp\":\"e\"";
    }
    end("");
}

void
TraceWriter::flowStart(const std::string& cat, const std::string& name,
                       std::uint32_t pid, std::uint32_t tid, Cycles ts,
                       std::uint64_t id)
{
    flow('s', cat, name, pid, tid, ts, id);
}

void
TraceWriter::flowStep(const std::string& cat, const std::string& name,
                      std::uint32_t pid, std::uint32_t tid, Cycles ts,
                      std::uint64_t id)
{
    flow('t', cat, name, pid, tid, ts, id);
}

void
TraceWriter::flowEnd(const std::string& cat, const std::string& name,
                     std::uint32_t pid, std::uint32_t tid, Cycles ts,
                     std::uint64_t id)
{
    flow('f', cat, name, pid, tid, ts, id);
}

void
TraceWriter::processName(std::uint32_t pid, const std::string& name)
{
    begin('M', "__metadata", "process_name", pid, 0, 0);
    end("{\"name\":" + jsonout::str(name) + "}");
}

void
TraceWriter::threadName(std::uint32_t pid, std::uint32_t tid,
                        const std::string& name)
{
    begin('M', "__metadata", "thread_name", pid, tid, 0);
    end("{\"name\":" + jsonout::str(name) + "}");
}

} // namespace ndpext
