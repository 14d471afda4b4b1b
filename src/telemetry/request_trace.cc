#include "telemetry/request_trace.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/json_out.h"

namespace ndpext {

namespace {

/**
 * Slow-reservoir order: latency desc, ties broken (arrival, core) asc so
 * the retained set is independent of drain interleaving details.
 */
bool
slowerThan(const RequestTraceRecord& a, const RequestTraceRecord& b)
{
    if (a.latency() != b.latency()) {
        return a.latency() > b.latency();
    }
    if (a.arrival != b.arrival) {
        return a.arrival < b.arrival;
    }
    return a.core < b.core;
}

bool
sameRequest(const RequestTraceRecord& a, const RequestTraceRecord& b)
{
    return a.core == b.core && a.arrival == b.arrival && a.done == b.done;
}

/** Stage spans in causal order; rendered sequentially from arrival. */
struct StageSlice
{
    const char* name;
    Cycles RequestTraceRecord::* field;
};

constexpr StageSlice kStages[] = {
    {"queueWait", &RequestTraceRecord::queueWait},
    {"compute", &RequestTraceRecord::compute},
    {"l1", &RequestTraceRecord::l1},
    {"metadata", &RequestTraceRecord::metadata},
    {"icnIntra", &RequestTraceRecord::icnIntra},
    {"icnInter", &RequestTraceRecord::icnInter},
    {"dramCache", &RequestTraceRecord::dramCache},
    {"extMem", &RequestTraceRecord::extMem},
    {"mshrQueue", &RequestTraceRecord::mshrQueue},
};

} // namespace

void
RequestTraceCollector::init(std::uint32_t num_cores,
                            std::vector<TenantMeta> tenants,
                            TraceWriter* trace)
{
    NDP_ASSERT(buffers_.empty());
    NDP_ASSERT(!tenants.empty());
    tenants_ = std::move(tenants);
    trace_ = trace;
    buffers_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        buffers_.push_back(std::make_unique<RequestTraceBuffer>());
    }
    cur_.resize(tenants_.size());
    if (trace_ != nullptr) {
        trace_->processName(TraceWriter::kPidRequests, "requests");
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            trace_->threadName(TraceWriter::kPidRequests,
                               static_cast<std::uint32_t>(t),
                               tenants_[t].name);
        }
    }
}

RequestTraceBuffer*
RequestTraceCollector::buffer(CoreId c)
{
    if (buffers_.empty()) {
        return nullptr;
    }
    NDP_ASSERT(c < buffers_.size());
    return buffers_[c].get();
}

void
RequestTraceCollector::drain()
{
    for (auto& buf : buffers_) {
        for (const RequestTraceRecord& r : buf->records) {
            offer(r);
        }
        buf->records.clear();
    }
}

void
RequestTraceCollector::offer(const RequestTraceRecord& r)
{
    NDP_ASSERT(r.tenant < cur_.size());
    Reservoir& res = cur_[r.tenant];
    res.count += 1;

    if (p_.slowK > 0) {
        if (res.slow.size() < p_.slowK
            || slowerThan(r, res.slow.back())) {
            auto it = std::upper_bound(res.slow.begin(), res.slow.end(), r,
                                       slowerThan);
            res.slow.insert(it, r);
            if (res.slow.size() > p_.slowK) {
                res.slow.pop_back();
            }
        }
    }

    if (p_.uniformK > 0) {
        if (res.uniform.size() < p_.uniformK) {
            res.uniform.push_back(r);
        } else {
            // Algorithm R with a counter-hashed draw: no RNG state to
            // checkpoint, and the decision for the n-th request of a
            // tenant is a pure function of (seed, tenant, n).
            const std::uint64_t draw = mix64(
                p_.seed ^ mix64(static_cast<std::uint64_t>(r.tenant) + 1));
            const std::uint64_t j = mix64(draw ^ res.count) % res.count;
            if (j < p_.uniformK) {
                res.uniform[j] = r;
            }
        }
    }
}

void
RequestTraceCollector::finalizeEpoch(std::uint64_t epoch)
{
    for (std::size_t t = 0; t < cur_.size(); ++t) {
        Reservoir& res = cur_[t];
        std::vector<Exemplar> picked;
        picked.reserve(res.slow.size() + res.uniform.size());
        for (const RequestTraceRecord& r : res.slow) {
            picked.push_back({r, epoch, true, 0});
        }
        // Uniform sample, minus requests already retained as slow;
        // (arrival, core) order keeps the output readable and stable.
        std::vector<RequestTraceRecord> uni = res.uniform;
        std::sort(uni.begin(), uni.end(),
                  [](const RequestTraceRecord& a,
                     const RequestTraceRecord& b) {
                      if (a.arrival != b.arrival) {
                          return a.arrival < b.arrival;
                      }
                      return a.core < b.core;
                  });
        for (const RequestTraceRecord& r : uni) {
            const bool dup = std::any_of(
                res.slow.begin(), res.slow.end(),
                [&](const RequestTraceRecord& s) {
                    return sameRequest(s, r);
                });
            if (!dup) {
                picked.push_back({r, epoch, false, 0});
            }
        }
        for (Exemplar& e : picked) {
            e.flowId = nextFlowId_++;
            emitExemplarTrace(e);
            retained_.push_back(e);
        }
        res.slow.clear();
        res.uniform.clear();
        res.count = 0;
    }
}

void
RequestTraceCollector::emitExemplarTrace(const Exemplar& e)
{
    if (trace_ == nullptr) {
        return;
    }
    const RequestTraceRecord& r = e.rec;
    const std::uint32_t tid = r.tenant;
    const std::string args = "{\"kind\":"
        + jsonout::str(e.slow ? "slow" : "uniform")
        + ",\"epoch\":" + std::to_string(e.epoch)
        + ",\"core\":" + std::to_string(r.core)
        + ",\"latency\":" + std::to_string(r.latency()) + "}";
    trace_->completeSpan("request", "request", TraceWriter::kPidRequests,
                         tid, r.arrival, r.latency(), args);
    // Child stage slices laid out sequentially in causal order. This is
    // an *attribution* tree -- the stall shares did not actually occur
    // back-to-back -- but the widths are the exact cycle attribution
    // and they tile [arrival, done) with no gap (stage-sum identity).
    Cycles cursor = r.arrival;
    for (const StageSlice& s : kStages) {
        const Cycles dur = r.*(s.field);
        if (dur == 0) {
            continue;
        }
        trace_->completeSpan("request", s.name, TraceWriter::kPidRequests,
                             tid, cursor, dur);
        cursor += dur;
    }
    trace_->flowStart("request", "req", TraceWriter::kPidRequests, tid,
                      r.arrival, e.flowId);
    trace_->flowStep("request", "req", TraceWriter::kPidRequests, tid,
                     r.start, e.flowId);
    trace_->flowEnd("request", "req", TraceWriter::kPidRequests, tid,
                    r.done, e.flowId);
}

void
RequestTraceCollector::writeExemplarLine(std::ostream& os,
                                         const Exemplar& e) const
{
    const RequestTraceRecord& r = e.rec;
    NDP_ASSERT(r.tenant < tenants_.size());
    const TenantMeta& tm = tenants_[r.tenant];
    const bool violation = tm.sloCycles > 0 && r.latency() > tm.sloCycles;
    os << "{\"epoch\":" << e.epoch << ",\"tenant\":" << jsonout::str(tm.name)
       << ",\"qos\":" << jsonout::str(tm.reserved ? "reserved" : "best-effort")
       << ",\"kind\":" << jsonout::str(e.slow ? "slow" : "uniform")
       << ",\"core\":" << r.core << ",\"flow\":" << e.flowId
       << ",\"arrival\":" << r.arrival << ",\"start\":" << r.start
       << ",\"done\":" << r.done << ",\"latency\":" << r.latency()
       << ",\"sloCycles\":" << tm.sloCycles
       << ",\"violation\":" << (violation ? 1 : 0) << ",\"stages\":{";
    bool first = true;
    for (const StageSlice& s : kStages) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\"" << s.name << "\":" << r.*(s.field);
    }
    os << "}}\n";
}

void
RequestTraceCollector::writeJsonl(std::ostream& os) const
{
    for (const Exemplar& e : retained_) {
        writeExemplarLine(os, e);
    }
}

void
RequestTraceCollector::flushJsonl(std::ostream& os)
{
    writeJsonl(os);
    flushed_ += retained_.size();
    retained_.clear();
}

void
RequestTraceCollector::checkpoint(ckpt::Archive& ar)
{
    ar.section(0x7ACE);
    // Buffers are drained at every barrier before a snapshot is taken.
    for (const auto& buf : buffers_) {
        NDP_ASSERT(buf->records.empty());
    }
    const auto rec = [&](RequestTraceRecord& r) { r.checkpoint(ar); };
    ar.expect(cur_.size(), "request-trace tenant count mismatch");
    for (Reservoir& res : cur_) {
        ar.seq(res.slow, rec);
        ar.seq(res.uniform, rec);
        ar.u64(res.count);
    }
    ar.seq(retained_, [&](Exemplar& e) {
        e.rec.checkpoint(ar);
        ar.u64(e.epoch);
        ar.b(e.slow);
        ar.u64(e.flowId);
    });
    ar.u64(flushed_);
    ar.u64(nextFlowId_);
}

} // namespace ndpext
