#include "cpu/core.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "sim/packet.h"
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
    constexpr std::size_t kN = std::size(kServiceStages);
    const Cycles service = bd.total();
    if (service == 0) {
        out[kN] += wait;
        return;
    }
    Cycles share[kN];
    Cycles rem[kN];
    Cycles assigned = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        const Cycles part = bd.*kServiceStages[i].field;
        share[i] = wait * part / service;
        rem[i] = wait * part % service;
        assigned += share[i];
    }
    for (Cycles left = wait - assigned; left > 0; --left) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < kN; ++i) {
            if (rem[i] > rem[best]) {
                best = i;
            }
        }
        ++share[best];
        rem[best] = 0;
    }
    for (std::size_t i = 0; i < kN; ++i) {
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
    const StreamId sid = blocking.pkt.sid;
    Cycles shares[6] = {0, 0, 0, 0, 0, 0};
    splitWait(wait, blocking.pkt.bd, shares);
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

    // The new miss takes over the slot's packet (the stall window above
    // was already blamed on its previous occupant).
    Packet& pkt = slot->pkt;
    pkt = Packet::request(acc, id_, issue);
    mem_.recvAtomic(pkt);
    NDP_ASSERT(pkt.ready >= issue);
    if (telSink_ != nullptr && telSink_->tick()) {
        telSink_->record({id_, pkt.sid, issue, pkt.bd});
    }
    slot->free = pkt.ready;
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
                splitWait(done - now_, pkt.bd, shares);
                addShares(req_, shares);
            }
            req_.done = done;
            reqSink_->push(req_);
            reqOpen_ = false;
        }
    }

    const auto ev = l1d_.insert(line, acc.isWrite);
    if (ev.valid && ev.dirty) {
        Packet wb = Packet::writeback(ev.key * params_.lineBytes, id_, issue);
        mem_.recvAtomic(wb);
    }
    return true;
}

void
InOrderCore::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("accesses", [this] { return double(accesses_); });
    add("l1Hits", [this] { return double(l1Hits_); });
    add("cycles", [this] { return double(now_); });
    add("computeCycles", [this] { return double(computeCycles_); });
    add("l1Cycles", [this] { return double(l1Cycles()); });
    add("memStallCycles", [this] { return double(memStallCycles()); });
    add("idleCycles", [this] { return double(idleCycles_); });
    add("stall.metadata", [this] { return double(stall_.metadata); });
    add("stall.icnIntra", [this] { return double(stall_.icnIntra); });
    add("stall.icnInter", [this] { return double(stall_.icnInter); });
    add("stall.dramCache", [this] { return double(stall_.dramCache); });
    add("stall.extMem", [this] { return double(stall_.extMem); });
    add("stall.mshrQueue", [this] { return double(stall_.mshrQueue); });
}

} // namespace ndpext
