/**
 * @file
 * The non-NDP host baseline (Section VI): a 64-core processor with a
 * 32 MB NUCA LLC (512 kB bank per core, 9-cycle bank access + 3 cycles
 * per mesh hop, as in the Fig. 2 NUCA configuration) in front of DDR5
 * main memory. Used for the "Host" bars of Fig. 5 and the NUCA side of
 * the Fig. 2 motivation study.
 */

#ifndef NDPEXT_BASELINES_HOST_LLC_H
#define NDPEXT_BASELINES_HOST_LLC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/types.h"
#include "cpu/core.h"
#include "mem/mem_backend.h"
#include "sim/breakdown.h"
#include "sim/packet.h"
#include "sim/stats.h"

namespace ndpext {

struct HostParams
{
    std::uint32_t numCores = 64;
    std::uint64_t llcBankBytes = 512_KiB;
    std::uint32_t llcWays = 16;
    Cycles llcBankCycles = 9;
    Cycles hopCycles = 3;
    /** Cores/banks arranged on a meshX x meshY grid. */
    std::uint32_t meshX = 8;
    std::uint32_t meshY = 8;
    MemBackendConfig dram = DramTimingParams::ddr5Host();
    std::uint64_t coreFreqMhz = 2000;
    /** NoC energy per bit per hop. */
    double hopPjPerBit = 0.4;
};

class HostLlcController : public MemSink
{
  public:
    explicit HostLlcController(const HostParams& params);

    HostLlcController(const HostLlcController&) = delete;
    HostLlcController& operator=(const HostLlcController&) = delete;

    /** Core entry point: dispatches reads/writes and writebacks. */
    void recvAtomic(Packet& pkt) final;

    MemResult access(CoreId core, const Access& access, Cycles now);
    void writeback(CoreId core, Addr line_addr, Cycles now);

    const LatencyBreakdown& breakdown() const { return bd_; }
    std::uint64_t llcHits() const { return hits_; }
    std::uint64_t llcMisses() const { return misses_; }
    double
    llcHitRate() const
    {
        const double total = static_cast<double>(hits_ + misses_);
        return total == 0.0 ? 0.0 : static_cast<double>(hits_) / total;
    }
    double dramEnergyNj() const { return dram_->dynamicEnergyNj(); }
    double nocEnergyNj() const { return nocEnergyNj_; }

    void report(StatGroup& stats, const std::string& prefix) const;

  private:
    std::uint32_t hopsBetween(std::uint32_t a, std::uint32_t b) const;

    HostParams params_;
    std::vector<SetAssocCache> banks_;
    std::unique_ptr<MemBackend> dram_;

    LatencyBreakdown bd_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    double nocEnergyNj_ = 0.0;
};

} // namespace ndpext

#endif // NDPEXT_BASELINES_HOST_LLC_H
