#include "telemetry/telemetry.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/atomic_file.h"
#include "common/logging.h"

namespace ndpext {

namespace {

/** Packet-latency histogram range in cycles (overflow bin beyond). */
constexpr double kLatencyHistMax = 20000.0;
constexpr std::size_t kLatencyHistBuckets = 200;

} // namespace

Telemetry::Telemetry(const TelemetryConfig& config)
    : cfg_(config), metrics_(out_[kMetrics].text), trace_(out_[kTrace].text),
      decisions_(out_[kDecisions].text),
      reqTrace_(RequestTraceCollector::Params{config.traceSlowK,
                                              config.traceUniformK},
                out_[kExemplars].text),
      latencyHist_(kLatencyHistMax, kLatencyHistBuckets)
{
    trace_.processName(TraceWriter::kPidRuntime, "runtime");
    trace_.processName(TraceWriter::kPidPackets, "packets");
    metrics_.registerHistogram("telemetry.packetLatency", &latencyHist_);
    metrics_.registerCounter("telemetry.packetSamples", [this] {
        return static_cast<double>(latencyHist_.count());
    });
}

void
Telemetry::initPacketSampling(std::uint32_t num_cores)
{
    NDP_ASSERT(buffers_.empty(), "packet sampling initialized twice");
    if (cfg_.packetSampleEvery == 0) {
        return;
    }
    buffers_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        auto buf = std::make_unique<PacketSampleBuffer>();
        buf->every = cfg_.packetSampleEvery;
        buffers_.push_back(std::move(buf));
    }
}

PacketSampleBuffer*
Telemetry::packetBuffer(CoreId c)
{
    return c < buffers_.size() ? buffers_[c].get() : nullptr;
}

void
Telemetry::emitPacketTrace(const PacketSample& s)
{
    const std::string name = s.sid == kNoStream
        ? std::string("pkt")
        : "pkt s" + std::to_string(s.sid);
    trace_.completeSpan("packet", name, TraceWriter::kPidPackets, s.core,
                        s.start, s.bd.total(),
                        "{\"sid\":" + std::to_string(s.sid) + "}");
    // Stage slices stack under the parent by enclosure: sequential
    // children in LatencyBreakdown bucket order.
    Cycles t = s.start;
    for (const ServiceStage& stage : kServiceStages) {
        const Cycles dur = s.bd.*stage.field;
        if (dur == 0) {
            continue;
        }
        trace_.completeSpan("packet", stage.name, TraceWriter::kPidPackets,
                            s.core, t, dur);
        t += dur;
    }
}

void
Telemetry::drainPacketSamples()
{
    for (auto& buf : buffers_) {
        for (const PacketSample& s : buf->samples) {
            latencyHist_.add(static_cast<double>(s.bd.total()));
            emitPacketTrace(s);
        }
        buf->samples.clear();
    }
}

void
Telemetry::initRequestTracing(
    std::uint32_t num_cores,
    std::vector<RequestTraceCollector::TenantMeta> tenants)
{
    if (!cfg_.traceRequests || tenants.empty()) {
        return;
    }
    reqTrace_.init(num_cores, std::move(tenants), &trace_);
}

RequestTraceBuffer*
Telemetry::requestBuffer(CoreId c)
{
    return reqTrace_.buffer(c);
}

void
Telemetry::drainRequestTraces()
{
    if (reqTrace_.active()) {
        reqTrace_.drain();
    }
}

void
Telemetry::finalizeRequestEpoch(std::uint64_t epoch)
{
    if (reqTrace_.active()) {
        reqTrace_.finalizeEpoch(epoch);
    }
}

void
Telemetry::sampleEpoch(std::uint64_t epoch, Cycles cycles)
{
    metrics_.sample(epoch, cycles);
}

std::string
Telemetry::partPath(const OutputFile& o) const
{
    return cfg_.outPrefix + o.stem + ".part";
}

bool
Telemetry::flushToDisk(std::string* error)
{
    if (cfg_.outPrefix.empty()) {
        return true;
    }
    for (OutputFile& o : out_) {
        const std::string path = partPath(o);
        // Truncating while nothing is flushed keeps stale side files of
        // an earlier crashed run with the same prefix out of this run.
        const auto mode = o.flushed == 0 ? std::ios::trunc : std::ios::app;
        std::ofstream os(path, mode);
        const std::string_view text = o.text.view();
        os << text;
        os.flush();
        if (!os) {
            if (error != nullptr) {
                *error = "cannot append to telemetry side file '" + path + "'";
            }
            return false;
        }
        o.flushed += text.size();
        o.text.str(std::string());
    }
    return true;
}

bool
Telemetry::writeAll(std::string* error)
{
    if (cfg_.outPrefix.empty()) {
        return true;
    }
    const auto fail = [error](const std::string& why) {
        if (error != nullptr) {
            *error = why;
        }
        return false;
    };
    // The exemplar file exists only when request tracing is armed.
    const std::size_t n =
        reqTrace_.active() ? kNumOutputs : std::size_t{kExemplars};
    // Check every side file before writing any output. The side files
    // grow with run length, so they are streamed, never held in memory.
    std::ifstream parts[kNumOutputs];
    for (std::size_t i = 0; i < n; ++i) {
        if (out_[i].flushed == 0) {
            continue;
        }
        const std::string path = partPath(out_[i]);
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(path, ec);
        parts[i].open(path, std::ios::binary);
        if (ec || !parts[i]) {
            return fail("cannot read telemetry side file '" + path + "'");
        }
        if (size != out_[i].flushed) {
            return fail("telemetry side file '" + path + "' has "
                        + std::to_string(size) + " bytes, expected "
                        + std::to_string(out_[i].flushed));
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const OutputFile& o = out_[i];
        // temp-file + rename so a crash mid-write cannot leave a torn
        // (unparseable) telemetry file behind.
        const std::string path = cfg_.outPrefix + o.stem + o.ext;
        std::string why;
        const bool ok = writeFileAtomic(
            path,
            [&](std::ostream& os) {
                if (o.flushed != 0) {
                    os << parts[i].rdbuf();
                }
                os << o.text.view();
                if (i == kTrace) {
                    os << trace_.footer();
                }
            },
            &why);
        if (!ok) {
            return fail("cannot write telemetry file '" + path + "': " + why);
        }
    }
    for (const OutputFile& o : out_) {
        std::remove(partPath(o).c_str());
    }
    return true;
}

void
Telemetry::checkpoint(ckpt::Archive& ar)
{
    ar.section(0x7E7E);
    for (OutputFile& o : out_) {
        std::string text(o.text.view());
        ar.str(text);
        ar.u64(o.flushed);
        if (ar.loading()) {
            o.text.str(std::string());
            o.text << text;
        }
    }
    trace_.checkpoint(ar);
    ar.hist(latencyHist_);
    ar.expect(buffers_.size(), "packet-sample buffer count mismatch");
    for (auto& buf : buffers_) {
        NDP_ASSERT(buf->samples.empty(), "packet samples not drained");
        ar.u64(buf->seen);
    }
    reqTrace_.checkpoint(ar);
    if (!ar.loading() || cfg_.outPrefix.empty()) {
        return;
    }
    // A kill between a flush and the next save leaves bytes (maybe a
    // torn record) past the image's counts: cut each side file back to
    // its count, so the resumed run appends where the snapshot ended.
    for (const OutputFile& o : out_) {
        if (o.flushed == 0) {
            continue;
        }
        const std::string path = partPath(o);
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(path, ec);
        NDP_ASSERT(!ec, "telemetry side file missing at resume: ", path);
        NDP_ASSERT(size >= o.flushed,
                   "telemetry side file too short at resume: ", path);
        std::filesystem::resize_file(path, o.flushed, ec);
        NDP_ASSERT(!ec, "cannot truncate telemetry side file ", path, ": ",
                   ec.message());
    }
}

} // namespace ndpext
