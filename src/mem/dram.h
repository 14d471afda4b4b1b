/**
 * @file
 * Banked DRAM timing and energy model -- the default ("banked") memory
 * backend.
 *
 * Implements the row-buffer state machine with the Table II parameters:
 *   HBM3  1600 MHz, RCD-CAS-RP 24-24-24, RD/WR 1.7 pJ/bit, ACT+PRE 0.6 nJ
 *   HMC2  1250 MHz, RCD-CAS-RP 14-14-14
 *   DDR5-4800 (extended memory), RCD-CAS-RP 40-40-40, 3.2 pJ/bit, 3.3 nJ
 *
 * All latencies are converted to *core* cycles (2 GHz) at construction so
 * the access path is pure integer arithmetic. Bank-level contention is
 * modelled with gap-filling interval reservation per bank (see
 * sim/resource.h); the row-buffer state itself is a scalar approximation.
 *
 * DramDevice stays a concrete class (tests and tools construct it
 * directly); it is also the "banked" row of the memory backend table
 * (mem/mem_backend_registry.h) and is the bit-identical default for
 * every memory role.
 */

#ifndef NDPEXT_MEM_DRAM_H
#define NDPEXT_MEM_DRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/mem_backend.h"
#include "sim/resource.h"
#include "sim/stats.h"

namespace ndpext {

/** A set of banks behind one shared data bus. */
class DramDevice : public MemBackend
{
  public:
    DramDevice(const DramTimingParams& params, std::uint64_t core_freq_mhz);

    DramResult accessRow(std::uint32_t bank, std::uint64_t row,
                         std::uint32_t bytes, bool is_write,
                         Cycles now) override;

    void
    checkpoint(ckpt::Archive& ar) override
    {
        ar.expect(banks_.size(), "DRAM bank count mismatch");
        for (Bank& b : banks_) {
            ar.u64(b.openRow);
            b.busy.checkpoint(ar);
        }
        MemBackend::checkpoint(ar);
    }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        /** Occupancy of the bank (command + data time), gap-filling. */
        BandwidthResource busy{1.0};
    };

    std::vector<Bank> banks_;
};

} // namespace ndpext

#endif // NDPEXT_MEM_DRAM_H
