/**
 * @file
 * CXL.mem Type-3 extended memory: a CXL link in front of DDR5 channels.
 *
 * Table II: 16-lane link, 200 ns link latency (excluding DRAM access),
 * 11.4 pJ/bit; backing DDR5-4800 with 4 channels x 2 ranks x 16 banks.
 * Fig. 8(b) sweeps the link latency (50/70/200 ns cases).
 *
 * Fault model (when a FaultInjector is attached): transient link errors
 * force the endpoint to retry the request with capped exponential
 * backoff -- every attempt re-occupies link bandwidth and pays the link
 * latency again. Media poison is sticky per cacheline; a poisoned read
 * completes but is flagged so the caller can escalate to the runtime.
 */

#ifndef NDPEXT_CXL_EXTENDED_MEMORY_H
#define NDPEXT_CXL_EXTENDED_MEMORY_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "fault/fault_injector.h"
#include "mem/mem_backend.h"
#include "sim/resource.h"
#include "sim/stats.h"
#include "sim/stream_ledger.h"

namespace ndpext {

struct CxlParams
{
    /** One-way link latency in core cycles (200 ns @ 2 GHz = 400). */
    Cycles linkLatencyCycles = 400;
    /** Link bandwidth, bytes per core cycle (x16 CXL 3.0 ~ 121 GB/s). */
    double linkBytesPerCycle = 60.0;
    /** Link transfer energy, pJ per bit. */
    double pjPerBit = 11.4;

    /** Energy of moving `bytes` over the link, in nanojoules. */
    double
    energyNj(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) * 8.0 * pjPerBit * 1e-3;
    }
};

/** Completion info of one extended-memory access. */
struct CxlResult
{
    Cycles done = 0;
    /** Read returned a poisoned line: data unusable, escalate. */
    bool poisoned = false;
};

/**
 * The CXL endpoint + DDR5 device. The link is a shared bandwidth resource;
 * every access pays one round trip: request over the link, DDR5 access,
 * response over the link.
 */
class ExtendedMemory
{
  public:
    /**
     * @param dram backend selection for the backing device; a bare
     * DramTimingParams converts to the default "banked" backend.
     */
    ExtendedMemory(const CxlParams& cxl, const MemBackendConfig& dram,
                   std::uint64_t core_freq_mhz);

    ExtendedMemory(const ExtendedMemory&) = delete;
    ExtendedMemory& operator=(const ExtendedMemory&) = delete;

    /** Attach (or detach with nullptr) the fault injector. */
    void setFaultInjector(FaultInjector* fault) { fault_ = fault; }

    /**
     * Access `bytes` at `addr`, arriving at the CXL port at `now`. `sid`
     * owns the access for energy attribution (kNoStream = unattributed).
     */
    CxlResult access(Addr addr, std::uint32_t bytes, bool is_write,
                     Cycles now, StreamId sid = kNoStream);

    const CxlParams& params() const { return cxl_; }
    const MemBackend& dram() const { return *dram_; }

    std::uint64_t accesses() const { return accesses_; }
    double linkEnergyNj() const { return linkEnergyNj_; }
    double dramEnergyNj() const { return dram_->dynamicEnergyNj(); }
    /** Payload bytes moved over the CXL link (bandwidth telemetry): the
     *  sum of the per-stream link bytes. */
    std::uint64_t linkBytes() const;

    /**
     * Per-stream cost attribution: link bytes (incl. the request flit and
     * any fault retries), DRAM bytes, and DRAM row activations are counted
     * per owning stream id (kNoStream included), and the energy shares
     * are derived from those integer counters with the device's energy
     * coefficients. Summed over every sid, the integer counters equal
     * the machine totals exactly; the derived energies match
     * linkEnergyNj() / dramEnergyNj() up to float association order.
     */
    double
    streamLinkEnergyNj(StreamId sid) const
    {
        return cxl_.energyNj(stream_.at(sid).linkBytes);
    }
    double
    streamDramEnergyNj(StreamId sid) const
    {
        const StreamCounters& c = stream_.at(sid);
        return dram_->params().energyNj(c.dramBytes, c.dramActivations);
    }

    /** Transient-link-error retries performed (degraded mode). */
    std::uint64_t linkRetries() const { return linkRetries_; }
    /** Accesses whose retry budget ran out (link-level FEC recovery). */
    std::uint64_t retriesExhausted() const { return retriesExhausted_; }
    /** Reads that returned poison. */
    std::uint64_t poisonedReads() const { return poisonedReads_; }

    /** Declare the link and device counters under `prefix`. */
    void counters(Counters& out, const std::string& prefix) const;

    /** Checkpoint pass (link/DRAM parameters are configuration). */
    void
    checkpoint(ckpt::Archive& ar)
    {
        dram_->checkpoint(ar);
        link_.checkpoint(ar);
        stream_.checkpoint(ar, [&](StreamCounters& c) {
            ar.u64(c.linkBytes);
            ar.u64(c.dramBytes);
            ar.u64(c.dramActivations);
        });
        ar.u64(accesses_);
        ar.d(linkEnergyNj_);
        ar.u64(linkRetries_);
        ar.u64(retriesExhausted_);
        ar.u64(poisonedReads_);
    }

  private:
    /** Integer cost counters of one stream. */
    struct StreamCounters
    {
        std::uint64_t linkBytes = 0;
        std::uint64_t dramBytes = 0;
        std::uint64_t dramActivations = 0;
    };

    CxlParams cxl_;
    std::unique_ptr<MemBackend> dram_;
    BandwidthResource link_;
    FaultInjector* fault_ = nullptr;

    /** Per-stream attribution. */
    StreamLedger<StreamCounters> stream_;

    std::uint64_t accesses_ = 0;
    double linkEnergyNj_ = 0.0;
    std::uint64_t linkRetries_ = 0;
    std::uint64_t retriesExhausted_ = 0;
    std::uint64_t poisonedReads_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_CXL_EXTENDED_MEMORY_H
