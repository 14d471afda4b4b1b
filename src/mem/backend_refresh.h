/**
 * @file
 * Refresh- and power-down-aware memory backend.
 *
 * Extends the banked row-buffer model with two effects the default
 * backend ignores:
 *
 *  - All-bank refresh: every tREFI window the device is unavailable for
 *    tRFC. A request arriving inside the blackout stalls to its end
 *    (refreshStalls / refreshStallCycles), and a completed refresh
 *    closes every open row (the precharge-all before REF), so the first
 *    access per bank afterwards pays an activation.
 *  - Power-down idle states: a bank idle longer than `pd-idle` core
 *    cycles is assumed to have entered fast-exit power-down and pays
 *    `pd-exit` wake cycles; idle longer than `sr-idle` means slow-exit
 *    self-refresh and `sr-exit` wake cycles (which also loses the open
 *    row). Residency counters split idle time between the states.
 *
 * Both effects are functions of request timestamps only, preserving the
 * determinism contract. Tunables (all in cycles): refi/rfc (DRAM-clock),
 * pd-idle/pd-exit/sr-idle/sr-exit (core-clock).
 */

#ifndef NDPEXT_MEM_BACKEND_REFRESH_H
#define NDPEXT_MEM_BACKEND_REFRESH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/mem_backend.h"
#include "sim/resource.h"

namespace ndpext {

class RefreshDramBackend : public MemBackend
{
  public:
    RefreshDramBackend(const MemBackendConfig& cfg,
                       std::uint64_t core_freq_mhz);

    /**
     * The rules across tunables: tREFI > tRFC once both are in core
     * cycles, and sr-idle >= pd-idle. The diagnostic, or "" when both
     * hold (MemBackendInfo::crossCheck).
     */
    static std::string crossCheck(const MemBackendConfig& cfg,
                                  std::uint64_t core_freq_mhz);

    DramResult accessRow(std::uint32_t bank, std::uint64_t row,
                         std::uint32_t bytes, bool is_write,
                         Cycles now) override;

    void counters(Counters& out, const std::string& prefix) const override;

    void checkpoint(ckpt::Archive& ar) override;

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        /** End time of this bank's last access (idle-gap reference). */
        Cycles lastDone = 0;
        /** Refresh window index already accounted by this bank. */
        std::uint64_t lastRefreshIndex = 0;
        BandwidthResource busy{1.0};
    };

    /** Push `t` past the refresh blackout it falls into, if any. */
    Cycles refreshAlign(Cycles t);

    Cycles refiCycles_;
    Cycles rfcCycles_;
    Cycles pdIdleCycles_;
    Cycles pdExitCycles_;
    Cycles srIdleCycles_;
    Cycles srExitCycles_;
    std::vector<Bank> banks_;

    // Refresh / power-state counters
    std::uint64_t refreshStalls_ = 0;
    std::uint64_t refreshStallCycles_ = 0;
    std::uint64_t pdWakes_ = 0;
    std::uint64_t srWakes_ = 0;
    std::uint64_t pdResidencyCycles_ = 0;
    std::uint64_t srResidencyCycles_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_MEM_BACKEND_REFRESH_H
