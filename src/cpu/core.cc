#include "cpu/core.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/packet.h"
#include "telemetry/metric_registry.h"
#include "telemetry/telemetry.h"

namespace ndpext {

InOrderCore::InOrderCore(CoreId id, const CoreParams& params, MemSink& mem)
    : id_(id), params_(params), mem_(mem),
      l1d_(SetAssocCache::fromCapacity(params.l1dCapacityBytes,
                                       params.lineBytes, params.l1dWays)),
      mshr_(std::max<std::uint32_t>(1, params.mshrs))
{
}

namespace {

/**
 * Split a wait window over a service breakdown into integer shares
 * (largest-remainder rounding, exact sum, tie-break lowest bucket
 * index -- a pure function of (wait, breakdown)). `out` accumulates
 * [metadata, icnIntra, icnInter, dramCache, extMem, mshrQueue]; the
 * whole window lands in mshrQueue when there is no recorded service.
 */
void
splitWait(Cycles wait, const LatencyBreakdown& bd, Cycles out[6])
{
    const Cycles service = bd.total();
    if (service == 0) {
        out[5] += wait;
        return;
    }
    const Cycles part[5] = {bd.metadata, bd.icnIntra, bd.icnInter,
                            bd.dramCache, bd.extMem};
    Cycles share[5];
    Cycles rem[5];
    Cycles assigned = 0;
    for (int i = 0; i < 5; ++i) {
        share[i] = wait * part[i] / service;
        rem[i] = wait * part[i] % service;
        assigned += share[i];
    }
    for (Cycles left = wait - assigned; left > 0; --left) {
        int best = 0;
        for (int i = 1; i < 5; ++i) {
            if (rem[i] > rem[best]) {
                best = i;
            }
        }
        ++share[best];
        rem[best] = 0;
    }
    for (int i = 0; i < 5; ++i) {
        out[i] += share[i];
    }
}

void
addShares(RequestTraceRecord& req, const Cycles shares[6])
{
    req.metadata += shares[0];
    req.icnIntra += shares[1];
    req.icnInter += shares[2];
    req.dramCache += shares[3];
    req.extMem += shares[4];
    req.mshrQueue += shares[5];
}

} // namespace

void
InOrderCore::attributeStall(Cycles wait, const MshrSlot& blocking)
{
    memStallCycles_ += wait;

    static const LatencyBreakdown kNoService{};
    const LatencyBreakdown& bd =
        blocking.pkt != nullptr ? blocking.pkt->bd : kNoService;
    const StreamId sid =
        blocking.pkt != nullptr ? blocking.pkt->sid : kNoStream;
    Cycles shares[6] = {0, 0, 0, 0, 0, 0};
    splitWait(wait, bd, shares);
    stall_.metadata += shares[0];
    stall_.icnIntra += shares[1];
    stall_.icnInter += shares[2];
    stall_.dramCache += shares[3];
    stall_.extMem += shares[4];
    stall_.mshrQueue += shares[5];
    if (reqOpen_) {
        // The same exact shares feed the in-flight request's record, so
        // its stage sum stays cycle-exact.
        addShares(req_, shares);
    }

    // Per-stream attribution: the wait is the blocking packet's fault.
    if (sid == kNoStream) {
        noStreamStall_ += wait;
    } else {
        if (streamStall_.size() <= sid) {
            streamStall_.resize(sid + 1, 0);
        }
        streamStall_[sid] += wait;
    }
}

bool
InOrderCore::step(AccessGenerator& gen)
{
    Access acc;
    if (!gen.next(acc, now_)) {
        // Drain: the run is only complete once in-flight misses land.
        // Walk the slots in completion order so each incremental wait is
        // blamed on the packet that frees at that time.
        std::vector<MshrSlot> order = mshr_;
        std::stable_sort(order.begin(), order.end(),
                         [](const MshrSlot& a, const MshrSlot& b) {
                             return a.free < b.free;
                         });
        for (const MshrSlot& slot : order) {
            if (slot.free > now_) {
                attributeStall(slot.free - now_, slot);
                now_ = slot.free;
            }
        }
        return false;
    }
    ++accesses_;
    const bool openReq =
        reqSink_ != nullptr && acc.tenant != kNoTenantId && !reqOpen_;
    if (acc.notBefore > now_) {
        // Open-loop: the request this access belongs to has not arrived
        // yet; the core sits idle until it does.
        idleCycles_ += acc.notBefore - now_;
        now_ = acc.notBefore;
    }
    if (openReq) {
        // First access of a serving request: requests are strictly
        // sequential per core, so !reqOpen_ identifies it, and only the
        // first access carries the arrival cycle in notBefore.
        reqOpen_ = true;
        req_ = RequestTraceRecord{};
        req_.tenant = acc.tenant;
        req_.core = id_;
        req_.arrival = acc.notBefore;
        req_.start = now_;
        req_.queueWait = now_ - acc.notBefore;
    }
    now_ += acc.computeCycles;
    computeCycles_ += acc.computeCycles;
    if (reqOpen_) {
        req_.compute += acc.computeCycles;
    }

    const std::uint64_t line = acc.addr / params_.lineBytes;
    if (l1d_.access(line, acc.isWrite)) {
        ++l1Hits_;
        now_ += params_.l1HitCycles;
        if (reqOpen_) {
            req_.l1 += params_.l1HitCycles;
        }
        if (acc.endOfRequest) {
            gen.onRetire(acc, now_);
            if (reqOpen_) {
                req_.done = now_;
                reqSink_->push(req_);
                reqOpen_ = false;
            }
        }
        return true;
    }

    // Miss: grab an MSHR; stall only if all of them are in flight, and
    // blame the wait on the packet occupying the earliest-freeing slot.
    auto slot = std::min_element(mshr_.begin(), mshr_.end(),
                                 [](const MshrSlot& a, const MshrSlot& b) {
                                     return a.free < b.free;
                                 });
    const Cycles issue = std::max(now_, slot->free);
    if (issue > now_) {
        attributeStall(issue - now_, *slot);
    }

    // Recycle the slot's pooled packet in place (the stall window above
    // was already blamed on its previous occupant).
    Packet* pkt = slot->pkt;
    if (pkt == nullptr) {
        pkt = pool_.acquire();
        slot->pkt = pkt;
    } else {
        *pkt = Packet{};
    }
    pkt->addr = acc.addr;
    pkt->bytes = acc.size;
    pkt->op = acc.isWrite ? MemOp::Write : MemOp::Read;
    pkt->sid = acc.sid;
    pkt->elem = acc.elem;
    pkt->src = id_;
    pkt->ready = issue;
    mem_.recvAtomic(*pkt);
    NDP_ASSERT(pkt->ready >= issue);
    if (telSink_ != nullptr && telSink_->tick()) {
        PacketSample s;
        s.core = id_;
        s.sid = pkt->sid;
        s.start = issue;
        s.metadata = pkt->bd.metadata;
        s.icnIntra = pkt->bd.icnIntra;
        s.icnInter = pkt->bd.icnInter;
        s.dramCache = pkt->bd.dramCache;
        s.extMem = pkt->bd.extMem;
        telSink_->record(s);
    }
    slot->free = pkt->ready;
    now_ = issue + params_.l1HitCycles; // issue occupancy, then overlap
    if (reqOpen_) {
        req_.l1 += params_.l1HitCycles;
    }
    if (acc.endOfRequest) {
        // The request completes when its final miss lands, not when the
        // core moves on -- misses overlap with further execution.
        const Cycles done = std::max(now_, slot->free);
        gen.onRetire(acc, done);
        if (reqOpen_) {
            if (done > now_) {
                // Completion tail: the final miss is still in flight
                // after the core moved on. Not a core stall, but it IS
                // request latency -- split it over the final packet's
                // own service breakdown.
                Cycles shares[6] = {0, 0, 0, 0, 0, 0};
                splitWait(done - now_, pkt->bd, shares);
                addShares(req_, shares);
            }
            req_.done = done;
            reqSink_->push(req_);
            reqOpen_ = false;
        }
    }

    const auto ev = l1d_.insert(line, acc.isWrite);
    if (ev.valid && ev.dirty) {
        Packet* wb = pool_.acquire();
        wb->addr = ev.key * params_.lineBytes;
        wb->op = MemOp::Writeback;
        wb->src = id_;
        wb->ready = issue;
        mem_.recvAtomic(*wb);
        pool_.release(wb);
    }
    return true;
}

void
InOrderCore::registerCpiMetrics(MetricRegistry& registry,
                                const std::string& prefix)
{
    registry.registerCounter(prefix + ".computeCycles",
                             [this] { return double(computeCycles_); });
    registry.registerCounter(prefix + ".l1Cycles",
                             [this] { return double(l1Cycles()); });
    registry.registerCounter(prefix + ".memStallCycles",
                             [this] { return double(memStallCycles_); });
    registry.registerCounter(prefix + ".idleCycles",
                             [this] { return double(idleCycles_); });
    registry.registerCounter(prefix + ".stall.metadata",
                             [this] { return double(stall_.metadata); });
    registry.registerCounter(prefix + ".stall.icnIntra",
                             [this] { return double(stall_.icnIntra); });
    registry.registerCounter(prefix + ".stall.icnInter",
                             [this] { return double(stall_.icnInter); });
    registry.registerCounter(prefix + ".stall.dramCache",
                             [this] { return double(stall_.dramCache); });
    registry.registerCounter(prefix + ".stall.extMem",
                             [this] { return double(stall_.extMem); });
    registry.registerCounter(prefix + ".stall.mshrQueue",
                             [this] { return double(stall_.mshrQueue); });
}

void
InOrderCore::registerMetrics(MetricRegistry& registry)
{
    // Shared names: the registry sums every core's reader, so the series
    // is the machine-wide total without 64x per-core key bloat.
    registry.registerCounter("cores.accesses",
                             [this] { return double(accesses_); });
    registry.registerCounter("cores.l1Hits",
                             [this] { return double(l1Hits_); });
    registerCpiMetrics(registry, "cores");
}

void
InOrderCore::report(StatGroup& stats, const std::string& prefix) const
{
    stats.add(prefix + ".accesses", static_cast<double>(accesses_));
    stats.add(prefix + ".l1Hits", static_cast<double>(l1Hits_));
    stats.add(prefix + ".cycles", static_cast<double>(now_));
    stats.add(prefix + ".computeCycles",
              static_cast<double>(computeCycles_));
    stats.add(prefix + ".l1Cycles", static_cast<double>(l1Cycles()));
    stats.add(prefix + ".memStallCycles",
              static_cast<double>(memStallCycles_));
    stats.add(prefix + ".idleCycles", static_cast<double>(idleCycles_));
    stall_.report(stats, prefix + ".stall");
}

} // namespace ndpext
