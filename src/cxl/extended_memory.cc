#include "cxl/extended_memory.h"

#include <algorithm>

#include "telemetry/metric_registry.h"

namespace ndpext {

ExtendedMemory::ExtendedMemory(const CxlParams& cxl,
                               const MemBackendConfig& dram,
                               std::uint64_t core_freq_mhz)
    : cxl_(cxl), dram_(createMemBackend(dram, core_freq_mhz)),
      link_(cxl.linkBytesPerCycle)
{
}

void
ExtendedMemory::recvAtomic(Packet& pkt)
{
    const CxlResult res =
        access(pkt.addr, pkt.bytes, pkt.isWrite(), pkt.ready, pkt.sid);
    pkt.bd.extMem += res.done - pkt.ready;
    pkt.ready = res.done;
    pkt.poisoned = res.poisoned;
}

ExtendedMemory::StreamCounters&
ExtendedMemory::countersFor(StreamId sid)
{
    if (sid == kNoStream) {
        return noStream_;
    }
    if (stream_.size() <= sid) {
        stream_.resize(sid + 1);
    }
    return stream_[sid];
}

CxlResult
ExtendedMemory::access(Addr addr, std::uint32_t bytes, bool is_write,
                       Cycles now, StreamId sid)
{
    StreamCounters& sc = countersFor(sid);
    // Request flit over the link (64 B header+address class payload).
    // A transient link error loses the transaction; the endpoint retries
    // after capped exponential backoff. Every attempt occupies link
    // bandwidth and spends transfer energy.
    Cycles t = now;
    Cycles at_device = 0;
    std::uint32_t attempt = 0;
    for (;;) {
        const Cycles req_start = link_.reserve(64, t);
        at_device =
            req_start + cxl_.linkLatencyCycles + link_.serviceCycles(64);
        linkEnergyNj_ += 64.0 * 8.0 * cxl_.pjPerBit * 1e-3;
        linkBytes_ += 64;
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
    const Cycles rsp_start = link_.reserve(bytes, dr.done);
    const Cycles done =
        rsp_start + cxl_.linkLatencyCycles + link_.serviceCycles(bytes);

    ++accesses_;
    linkEnergyNj_ +=
        static_cast<double>(bytes) * 8.0 * cxl_.pjPerBit * 1e-3;
    linkBytes_ += bytes;
    sc.linkBytes += bytes;

    CxlResult res{done, false};
    if (!is_write && fault_ != nullptr && fault_->poisonRead(addr)) {
        res.poisoned = true;
        ++poisonedReads_;
    }
    return res;
}

void
ExtendedMemory::report(StatGroup& stats, const std::string& prefix) const
{
    stats.add(prefix + ".accesses", static_cast<double>(accesses_));
    stats.add(prefix + ".linkEnergyNj", linkEnergyNj_);
    stats.add(prefix + ".linkBytes", static_cast<double>(linkBytes_));
    stats.add(prefix + ".linkQueueCycles",
              static_cast<double>(link_.totalQueueCycles()));
    stats.add(prefix + ".linkReservations",
              static_cast<double>(link_.reservations()));
    stats.add(prefix + ".degraded.linkRetries",
              static_cast<double>(linkRetries_));
    stats.add(prefix + ".degraded.retriesExhausted",
              static_cast<double>(retriesExhausted_));
    stats.add(prefix + ".degraded.poisonedReads",
              static_cast<double>(poisonedReads_));
    dram_->report(stats, prefix + ".dram");
}

void
ExtendedMemory::registerMetrics(MetricRegistry& registry)
{
    registry.registerCounter("ext.accesses",
                             [this] { return double(accesses_); });
    registry.registerCounter("ext.linkBytes",
                             [this] { return double(linkBytes_); });
    registry.registerCounter("ext.linkEnergyNj",
                             [this] { return linkEnergyNj_; });
    registry.registerCounter("ext.linkQueueCycles", [this] {
        return double(link_.totalQueueCycles());
    });
    registry.registerCounter("ext.degraded.linkRetries",
                             [this] { return double(linkRetries_); });
    registry.registerCounter("ext.degraded.retriesExhausted",
                             [this] { return double(retriesExhausted_); });
    registry.registerCounter("ext.degraded.poisonedReads",
                             [this] { return double(poisonedReads_); });
    dram_->registerMetrics(registry, "ext.dram");
}

void
ExtendedMemory::reset()
{
    dram_->reset();
    link_.reset();
    stream_.clear();
    noStream_ = StreamCounters{};
    accesses_ = 0;
    linkEnergyNj_ = 0.0;
    linkBytes_ = 0;
    linkRetries_ = 0;
    retriesExhausted_ = 0;
    poisonedReads_ = 0;
}

} // namespace ndpext
