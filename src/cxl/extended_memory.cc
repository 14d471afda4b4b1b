#include "cxl/extended_memory.h"

#include <algorithm>

namespace ndpext {

ExtendedMemory::ExtendedMemory(const CxlParams& cxl,
                               const MemBackendConfig& dram,
                               std::uint64_t core_freq_mhz)
    : cxl_(cxl), dram_(createMemBackend(dram, core_freq_mhz)),
      link_(cxl.linkBytesPerCycle)
{
}

CxlResult
ExtendedMemory::access(Addr addr, std::uint32_t bytes, bool is_write,
                       Cycles now, StreamId sid)
{
    StreamCounters& sc = stream_[sid];
    // Request flit over the link (64 B header+address class payload).
    // A transient link error loses the transaction; the endpoint retries
    // after capped exponential backoff. Every attempt occupies link
    // bandwidth and spends transfer energy.
    // Each leg divides for its service cycles once.
    const Cycles req_service = link_.serviceCycles(64);
    Cycles t = now;
    Cycles at_device = 0;
    std::uint32_t attempt = 0;
    for (;;) {
        at_device = link_.reserveFor(req_service, t) + cxl_.linkLatencyCycles
            + req_service;
        linkEnergyNj_ += 64.0 * 8.0 * cxl_.pjPerBit * 1e-3;
        sc.linkBytes += 64;
        if (fault_ == nullptr || !fault_->linkError()) {
            break;
        }
        if (attempt >= fault_->params().maxLinkRetries) {
            // Out of retries: the link layer recovers via FEC/replay at
            // a cost already paid above; count and proceed.
            ++retriesExhausted_;
            break;
        }
        ++attempt;
        ++linkRetries_;
        const Cycles backoff = std::min<Cycles>(
            fault_->params().retryBackoffCycles << (attempt - 1),
            fault_->params().retryBackoffCapCycles);
        t = at_device + backoff;
    }

    const DramResult dr = dram_->access(addr, bytes, is_write, at_device);
    sc.dramBytes += bytes;
    if (!dr.rowHit) {
        ++sc.dramActivations; // DramDevice activates on every non-hit
    }

    // Response payload back over the link.
    const Cycles rsp_service = link_.serviceCycles(bytes);
    const Cycles done = link_.reserveFor(rsp_service, dr.done)
        + cxl_.linkLatencyCycles + rsp_service;

    ++accesses_;
    linkEnergyNj_ +=
        static_cast<double>(bytes) * 8.0 * cxl_.pjPerBit * 1e-3;
    sc.linkBytes += bytes;

    CxlResult res{done, false};
    if (!is_write && fault_ != nullptr && fault_->poisonRead(addr)) {
        res.poisoned = true;
        ++poisonedReads_;
    }
    return res;
}

void
ExtendedMemory::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("accesses", [this] { return double(accesses_); });
    add("linkEnergyNj", [this] { return linkEnergyNj_; });
    add("linkBytes", [this] { return double(linkBytes()); });
    add("linkQueueCycles",
        [this] { return double(link_.totalQueueCycles()); });
    add("linkReservations", [this] { return double(link_.reservations()); });
    add("degraded.linkRetries", [this] { return double(linkRetries_); });
    add("degraded.retriesExhausted",
        [this] { return double(retriesExhausted_); });
    add("degraded.poisonedReads", [this] { return double(poisonedReads_); });
    dram_->counters(out, prefix + ".dram");
}

std::uint64_t
ExtendedMemory::linkBytes() const
{
    return stream_.fold(std::uint64_t{0},
                        [](std::uint64_t n, const StreamCounters& c) {
                            return n + c.linkBytes;
                        });
}

} // namespace ndpext
