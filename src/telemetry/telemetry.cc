#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "telemetry/json_out.h"

namespace ndpext {

Telemetry::Telemetry(const TelemetryConfig& config)
    : cfg_(config), metrics_(config.ringCapacity),
      reqTrace_(RequestTraceCollector::Params{config.traceSlowK,
                                              config.traceUniformK,
                                              config.traceSeed}),
      latencyHist_(config.latencyHistMax, config.latencyHistBuckets)
{
    trace_.processName(TraceWriter::kPidRuntime, "runtime");
    trace_.processName(TraceWriter::kPidPackets, "packets");
    metrics_.registerHistogram("telemetry.packetLatency", &latencyHist_);
    metrics_.registerCounter("telemetry.packetSamples", [this] {
        return static_cast<double>(drainedCount_);
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
    drainedUpTo_.assign(num_cores, 0);
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
                        s.start, s.total(),
                        "{\"sid\":" + std::to_string(s.sid) + "}");
    // Stage slices stack under the parent by enclosure: sequential
    // children in LatencyBreakdown bucket order.
    Cycles t = s.start;
    const std::pair<const char*, Cycles> stages[] = {
        {"metadata", s.metadata}, {"icnIntra", s.icnIntra},
        {"icnInter", s.icnInter}, {"dramCache", s.dramCache},
        {"extMem", s.extMem},
    };
    for (const auto& [stage, dur] : stages) {
        if (dur == 0) {
            continue;
        }
        trace_.completeSpan("packet", stage, TraceWriter::kPidPackets,
                            s.core, t, dur);
        t += dur;
    }
}

void
Telemetry::drainPacketSamples()
{
    for (std::size_t c = 0; c < buffers_.size(); ++c) {
        const auto& samples = buffers_[c]->samples;
        for (std::size_t i = drainedUpTo_[c]; i < samples.size(); ++i) {
            const PacketSample& s = samples[i];
            latencyHist_.add(static_cast<double>(s.total()));
            emitPacketTrace(s);
            drained_.push_back(s);
            ++drainedCount_;
        }
        drainedUpTo_[c] = samples.size();
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
Telemetry::partPath(const char* suffix) const
{
    return cfg_.outPrefix + suffix;
}

bool
Telemetry::appendPart(const char* suffix,
                      const std::function<void(std::ostream&)>& writer,
                      std::string* error)
{
    const std::string path = partPath(suffix);
    // The first flush of a fresh (non-resumed) run truncates, so stale
    // side files from an earlier crashed run with the same prefix can
    // never leak into this run's output.
    const auto mode = partFresh_ ? std::ios::trunc : std::ios::app;
    std::ofstream os(path, std::ios::out | mode);
    writer(os);
    os.flush();
    if (!os) {
        if (error != nullptr) {
            *error = "cannot append to telemetry side file '" + path + "'";
        }
        return false;
    }
    return true;
}

bool
Telemetry::flushToDisk(std::string* error)
{
    if (cfg_.outPrefix.empty()) {
        return true;
    }
    const bool ok =
        appendPart(".metrics.part",
                   [this](std::ostream& os) { metrics_.flushJsonl(os); },
                   error)
        && appendPart(".trace.part",
                      [this](std::ostream& os) { trace_.flushEventsTo(os); },
                      error)
        && appendPart(
            ".decisions.part",
            [this](std::ostream& os) { decisions_.flushJsonl(os); }, error)
        && appendPart(".exemplars.part",
                      [this](std::ostream& os) { reqTrace_.flushJsonl(os); },
                      error);
    partFresh_ = false;
    if (!ok) {
        return false;
    }
    // Drop the drained-sample copies too (only the cumulative counter
    // and histogram feed metrics); the undrained per-core suffixes stay.
    for (std::size_t c = 0; c < buffers_.size(); ++c) {
        auto& samples = buffers_[c]->samples;
        samples.erase(samples.begin(),
                      samples.begin()
                          + static_cast<std::ptrdiff_t>(drainedUpTo_[c]));
        drainedUpTo_[c] = 0;
    }
    drained_.clear();
    return true;
}

bool
Telemetry::openPart(const char* suffix, std::uint64_t expected_lines,
                    std::ifstream* is, std::string* error) const
{
    if (expected_lines == 0) {
        return true;
    }
    const std::string path = partPath(suffix);
    is->open(path, std::ios::in | std::ios::binary);
    if (!*is) {
        if (error != nullptr) {
            *error = "cannot read telemetry side file '" + path + "'";
        }
        return false;
    }
    using Chars = std::istreambuf_iterator<char>;
    const auto lines = static_cast<std::uint64_t>(
        std::count(Chars(*is), Chars(), '\n'));
    if (lines != expected_lines) {
        if (error != nullptr) {
            *error = "telemetry side file '" + path + "' has "
                + std::to_string(lines) + " lines, expected "
                + std::to_string(expected_lines);
        }
        return false;
    }
    is->clear();
    is->seekg(0);
    return true;
}

void
Telemetry::truncatePartFiles()
{
    // Resume-time normalization: a kill between a flush append and the
    // next checkpoint save leaves extra (possibly torn) trailing lines
    // beyond the restored flush cursors; rewrite each side file down to
    // exactly its cursor so appends are idempotent across retries.
    const auto truncate = [this](const char* suffix, std::uint64_t keep) {
        const std::string path = partPath(suffix);
        std::string text;
        if (keep > 0) {
            std::ifstream is(path, std::ios::in | std::ios::binary);
            std::ostringstream buf;
            buf << is.rdbuf();
            NDP_ASSERT(static_cast<bool>(is),
                       "telemetry side file missing at resume: ", path);
            text = buf.str();
            std::size_t pos = 0;
            for (std::uint64_t i = 0; i < keep; ++i) {
                pos = text.find('\n', pos);
                NDP_ASSERT(pos != std::string::npos,
                           "telemetry side file too short at resume: ",
                           path);
                ++pos;
            }
            text.resize(pos);
        }
        std::string why;
        const bool ok = writeFileAtomic(
            path, [&](std::ostream& os) { os << text; }, &why);
        NDP_ASSERT(ok, "cannot rewrite telemetry side file ", path, ": ",
                   why);
    };
    truncate(".metrics.part", metrics_.flushedSamples());
    truncate(".trace.part", trace_.flushedEvents());
    truncate(".decisions.part", decisions_.flushedRecords());
    truncate(".exemplars.part", reqTrace_.flushedExemplars());
}

void
Telemetry::removePartFiles() const
{
    std::remove(partPath(".metrics.part").c_str());
    std::remove(partPath(".trace.part").c_str());
    std::remove(partPath(".decisions.part").c_str());
    std::remove(partPath(".exemplars.part").c_str());
}

bool
Telemetry::writeAll(std::string* error)
{
    if (cfg_.outPrefix.empty()) {
        return true;
    }
    const auto writeTo = [&](const std::string& suffix,
                             const auto& writer) -> bool {
        // temp-file + rename so a crash mid-flush cannot leave a torn
        // (unparseable) telemetry file behind.
        const std::string path = cfg_.outPrefix + suffix;
        std::string why;
        if (!writeFileAtomic(path, writer, &why)) {
            if (error != nullptr) {
                *error =
                    "cannot write telemetry file '" + path + "': " + why;
            }
            return false;
        }
        return true;
    };
    // Stitch flushed side-file content back in front of the in-memory
    // remainder; byte-identical to a run that never flushed. The side
    // files are checked whole first, then streamed, never held in memory:
    // they grow with run length.
    std::ifstream metricsPart;
    std::ifstream decisionsPart;
    std::ifstream exemplarsPart;
    std::ifstream tracePart;
    if (!openPart(".metrics.part", metrics_.flushedSamples(), &metricsPart,
                  error)
        || !openPart(".decisions.part", decisions_.flushedRecords(),
                     &decisionsPart, error)
        || !openPart(".exemplars.part", reqTrace_.flushedExemplars(),
                     &exemplarsPart, error)
        || !openPart(".trace.part", trace_.flushedEvents(), &tracePart,
                     error)) {
        return false;
    }
    const auto copy = [](std::ostream& os, std::ifstream& part) {
        if (part.is_open()) {
            os << part.rdbuf();
        }
    };
    bool ok = writeTo(".metrics.jsonl",
                      [&](std::ostream& os) {
                          copy(os, metricsPart);
                          metrics_.writeJsonl(os);
                      })
        && writeTo(".trace.json",
                   [&](std::ostream& os) {
                       trace_.writeStitched(os, tracePart);
                   })
        && writeTo(".decisions.jsonl", [&](std::ostream& os) {
               copy(os, decisionsPart);
               decisions_.writeJsonl(os);
           });
    if (ok && reqTrace_.active()) {
        ok = writeTo(".exemplars.jsonl", [&](std::ostream& os) {
            copy(os, exemplarsPart);
            reqTrace_.writeJsonl(os);
        });
    }
    if (ok) {
        removePartFiles();
    }
    return ok;
}

void
Telemetry::checkpoint(ckpt::Archive& ar)
{
    ar.section(0x7E7E);
    metrics_.checkpoint(ar);
    trace_.checkpoint(ar);
    decisions_.checkpoint(ar);
    ar.hist(latencyHist_);
    const auto sample = [&](PacketSample& s) { s.checkpoint(ar); };
    ar.expect(buffers_.size(), "packet-sample buffer count mismatch");
    for (auto& buf : buffers_) {
        ar.u64(buf->every);
        ar.u64(buf->seen);
        ar.seq(buf->samples, sample);
    }
    ar.seq(drainedUpTo_, [&](std::size_t& n) { ar.u64(n); });
    ar.seq(drained_, sample);
    ar.u64(drainedCount_);
    reqTrace_.checkpoint(ar);
    if (ar.loading() && !cfg_.outPrefix.empty()) {
        truncatePartFiles();
        // The side files now end exactly at the restored cursors; the
        // next flush must append, not truncate.
        partFresh_ = false;
    }
}

} // namespace ndpext
