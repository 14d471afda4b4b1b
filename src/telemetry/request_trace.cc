#include "telemetry/request_trace.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/json_out.h"

namespace ndpext {

namespace {

/** Seed of the counter-hashed reservoir draws. */
constexpr std::uint64_t kReservoirSeed = 0x7ACE5EED;

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
                kReservoirSeed
                ^ mix64(static_cast<std::uint64_t>(r.tenant) + 1));
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
    for (Reservoir& res : cur_) {
        for (const RequestTraceRecord& r : res.slow) {
            exportExemplar(r, epoch, true);
        }
        // Uniform sample, minus requests already retained as slow;
        // (arrival, core) order keeps the output readable and stable.
        std::sort(res.uniform.begin(), res.uniform.end(),
                  [](const RequestTraceRecord& a,
                     const RequestTraceRecord& b) {
                      if (a.arrival != b.arrival) {
                          return a.arrival < b.arrival;
                      }
                      return a.core < b.core;
                  });
        for (const RequestTraceRecord& r : res.uniform) {
            const bool dup = std::any_of(
                res.slow.begin(), res.slow.end(),
                [&](const RequestTraceRecord& s) {
                    return sameRequest(s, r);
                });
            if (!dup) {
                exportExemplar(r, epoch, false);
            }
        }
        res.slow.clear();
        res.uniform.clear();
        res.count = 0;
    }
}

void
RequestTraceCollector::exportExemplar(const RequestTraceRecord& r,
                                      std::uint64_t epoch, bool slow)
{
    const std::uint64_t flow = nextFlowId_++;
    const char* kind = slow ? "slow" : "uniform";
    if (trace_ != nullptr) {
        const std::uint32_t tid = r.tenant;
        const std::string args = "{\"kind\":" + jsonout::str(kind)
            + ",\"epoch\":" + std::to_string(epoch)
            + ",\"core\":" + std::to_string(r.core)
            + ",\"latency\":" + std::to_string(r.latency()) + "}";
        trace_->completeSpan("request", "request", TraceWriter::kPidRequests,
                             tid, r.arrival, r.latency(), args);
        // Child stage slices laid out sequentially in causal order. This
        // is an *attribution* tree -- the stall shares did not actually
        // occur back-to-back -- but the widths are the exact cycle
        // attribution and they tile [arrival, done) with no gap
        // (stage-sum identity).
        Cycles cursor = r.arrival;
        for (const StageSlice& s : kStages) {
            const Cycles dur = r.*(s.field);
            if (dur == 0) {
                continue;
            }
            trace_->completeSpan("request", s.name,
                                 TraceWriter::kPidRequests, tid, cursor,
                                 dur);
            cursor += dur;
        }
        trace_->flowStart("request", "req", TraceWriter::kPidRequests, tid,
                          r.arrival, flow);
        trace_->flowStep("request", "req", TraceWriter::kPidRequests, tid,
                         r.start, flow);
        trace_->flowEnd("request", "req", TraceWriter::kPidRequests, tid,
                        r.done, flow);
    }

    NDP_ASSERT(r.tenant < tenants_.size());
    const TenantMeta& tm = tenants_[r.tenant];
    const bool violation = tm.sloCycles > 0 && r.latency() > tm.sloCycles;
    os_ << "{\"epoch\":" << epoch << ",\"tenant\":" << jsonout::str(tm.name)
        << ",\"qos\":"
        << jsonout::str(tm.reserved ? "reserved" : "best-effort")
        << ",\"kind\":" << jsonout::str(kind) << ",\"core\":" << r.core
        << ",\"flow\":" << flow << ",\"arrival\":" << r.arrival
        << ",\"start\":" << r.start << ",\"done\":" << r.done
        << ",\"latency\":" << r.latency()
        << ",\"sloCycles\":" << tm.sloCycles
        << ",\"violation\":" << (violation ? 1 : 0) << ",\"stages\":{";
    bool first = true;
    for (const StageSlice& s : kStages) {
        if (!first) {
            os_ << ",";
        }
        first = false;
        os_ << "\"" << s.name << "\":" << r.*(s.field);
    }
    os_ << "}}\n";
}

void
RequestTraceCollector::checkpoint(ckpt::Archive& ar)
{
    for (const auto& buf : buffers_) {
        NDP_ASSERT(buf->records.empty(), "request buffer not drained");
    }
    for (const Reservoir& res : cur_) {
        NDP_ASSERT(res.count == 0, "request reservoir not finalized");
    }
    ar.u64(nextFlowId_);
}

} // namespace ndpext
