#include "baselines/host_llc.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"

namespace ndpext {

HostLlcController::HostLlcController(const HostParams& params)
    : params_(params), dram_(createMemBackend(params.dram, params.coreFreqMhz))
{
    NDP_ASSERT(params.numCores == params.meshX * params.meshY,
               "host mesh must match core count");
    banks_.reserve(params.numCores);
    for (std::uint32_t i = 0; i < params.numCores; ++i) {
        banks_.push_back(SetAssocCache::fromCapacity(
            params.llcBankBytes, kCachelineBytes, params.llcWays));
    }
}

void
HostLlcController::recvAtomic(Packet& pkt)
{
    if (pkt.op == MemOp::Writeback) {
        writeback(pkt.src, pkt.addr, pkt.ready);
        return;
    }
    Access acc;
    acc.addr = pkt.addr;
    acc.size = pkt.bytes;
    acc.isWrite = pkt.isWrite();
    acc.sid = pkt.sid;
    acc.elem = pkt.elem;
    const LatencyBreakdown before = bd_;
    const MemResult res = access(pkt.src, acc, pkt.ready);
    // Attribute this request's bucket deltas to the packet.
    LatencyBreakdown delta = bd_;
    delta.metadata -= before.metadata;
    delta.icnIntra -= before.icnIntra;
    delta.icnInter -= before.icnInter;
    delta.dramCache -= before.dramCache;
    delta.extMem -= before.extMem;
    delta.requests -= before.requests;
    pkt.bd.merge(delta);
    pkt.ready = res.done;
}

std::uint32_t
HostLlcController::hopsBetween(std::uint32_t a, std::uint32_t b) const
{
    const std::uint32_t ax = a % params_.meshX;
    const std::uint32_t ay = a / params_.meshX;
    const std::uint32_t bx = b % params_.meshX;
    const std::uint32_t by = b / params_.meshX;
    return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
}

MemResult
HostLlcController::access(CoreId core, const Access& acc, Cycles now)
{
    NDP_ASSERT(core < params_.numCores);
    ++bd_.requests;
    Cycles t = now;

    const std::uint64_t line = acc.addr / kCachelineBytes;
    // Static NUCA: lines hashed across all banks.
    const std::uint32_t bank =
        static_cast<std::uint32_t>(mix64(line) % banks_.size());
    const std::uint32_t hops = hopsBetween(core, bank);

    const Cycles route = static_cast<Cycles>(hops) * params_.hopCycles;
    t += route + params_.llcBankCycles;
    bd_.icnIntra += route;
    bd_.dramCache += params_.llcBankCycles; // LLC array access bucket
    nocEnergyNj_ += 64.0 * 8.0 * params_.hopPjPerBit * 1e-3
        * static_cast<double>(hops);

    if (banks_[bank].access(line, acc.isWrite)) {
        ++hits_;
        // Response route back.
        t += route;
        bd_.icnIntra += route;
        return MemResult{t};
    }
    ++misses_;

    const auto ev = banks_[bank].insert(line, acc.isWrite);
    if (ev.valid && ev.dirty) {
        dram_->access(ev.key * kCachelineBytes, kCachelineBytes, true,
                      t);
    }
    const DramResult dr = dram_->access(acc.addr, kCachelineBytes,
                                       acc.isWrite, t);
    bd_.extMem += dr.done - t;
    t = dr.done + route;
    bd_.icnIntra += route;
    return MemResult{t};
}

void
HostLlcController::writeback(CoreId core, Addr line_addr, Cycles now)
{
    (void)core;
    const std::uint64_t line = line_addr / kCachelineBytes;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(mix64(line) % banks_.size());
    if (banks_[bank].contains(line)) {
        banks_[bank].access(line, true);
    } else {
        dram_->access(line_addr, kCachelineBytes, true, now);
    }
}

void
HostLlcController::counters(Counters& out, const std::string& prefix) const
{
    breakdownCounters(out, prefix + ".lat", [this] { return bd_; });
    const CounterScope add{out, prefix};
    add("llcHits", [this] { return double(hits_); });
    add("llcMisses", [this] { return double(misses_); });
    dram_->counters(out, prefix + ".dram");
}

} // namespace ndpext
