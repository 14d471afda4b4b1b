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
        handleWriteback(pkt);
        return;
    }
    handleAccess(pkt);
    pkt.bd.requests += 1;
    bd_.merge(pkt.bd);
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

void
HostLlcController::handleAccess(Packet& pkt)
{
    NDP_ASSERT(pkt.src < params_.numCores);
    const bool is_write = pkt.isWrite();
    const std::uint64_t line = pkt.addr / kCachelineBytes;
    // Static NUCA: lines hashed across all banks.
    const std::uint32_t bank =
        static_cast<std::uint32_t>(mix64(line) % banks_.size());
    const std::uint32_t hops = hopsBetween(pkt.src, bank);

    const Cycles route = static_cast<Cycles>(hops) * params_.hopCycles;
    pkt.ready += route + params_.llcBankCycles;
    pkt.bd.icnIntra += route;
    pkt.bd.dramCache += params_.llcBankCycles; // LLC array access bucket
    nocEnergyNj_ += 64.0 * 8.0 * params_.hopPjPerBit * 1e-3
        * static_cast<double>(hops);

    if (banks_[bank].access(line, is_write)) {
        ++hits_;
        // Response route back.
        pkt.ready += route;
        pkt.bd.icnIntra += route;
        return;
    }
    ++misses_;

    const auto ev = banks_[bank].insert(line, is_write);
    if (ev.valid && ev.dirty) {
        dram_->access(ev.key * kCachelineBytes, kCachelineBytes, true,
                      pkt.ready);
    }
    const DramResult dr =
        dram_->access(pkt.addr, kCachelineBytes, is_write, pkt.ready);
    pkt.bd.extMem += dr.done - pkt.ready;
    pkt.ready = dr.done + route;
    pkt.bd.icnIntra += route;
}

void
HostLlcController::handleWriteback(const Packet& pkt)
{
    const std::uint64_t line = pkt.addr / kCachelineBytes;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(mix64(line) % banks_.size());
    if (banks_[bank].contains(line)) {
        banks_[bank].access(line, true);
    } else {
        dram_->access(pkt.addr, kCachelineBytes, true, pkt.ready);
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
