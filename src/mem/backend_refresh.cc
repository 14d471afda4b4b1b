#include "mem/backend_refresh.h"

#include <algorithm>

#include "common/logging.h"

namespace ndpext {

namespace {

// JEDEC defaults: tREFI 3.9 us, tRFC ~295 ns at the device clock.
constexpr double kRefi = 9360.0;
constexpr double kRfc = 708.0;
constexpr double kPdIdle = 2000.0;
constexpr double kSrIdle = 200000.0;

/** A DRAM-clock tunable in core cycles. */
Cycles
dramTunable(const MemBackendConfig& cfg, const char* key, double fallback,
            std::uint64_t core_freq_mhz)
{
    return toCoreCycles(cfg.tunable(key, fallback), cfg.timing.clockMhz,
                        static_cast<double>(core_freq_mhz));
}

} // namespace

RefreshDramBackend::RefreshDramBackend(const MemBackendConfig& cfg,
                                       std::uint64_t core_freq_mhz)
    : MemBackend(cfg.timing, core_freq_mhz),
      refiCycles_(dramTunable(cfg, "refi", kRefi, core_freq_mhz)),
      rfcCycles_(dramTunable(cfg, "rfc", kRfc, core_freq_mhz)),
      pdIdleCycles_(static_cast<Cycles>(cfg.tunable("pd-idle", kPdIdle))),
      pdExitCycles_(static_cast<Cycles>(cfg.tunable("pd-exit", 30.0))),
      srIdleCycles_(static_cast<Cycles>(cfg.tunable("sr-idle", kSrIdle))),
      srExitCycles_(static_cast<Cycles>(cfg.tunable("sr-exit", 500.0))),
      banks_(cfg.timing.totalBanks())
{
    // The validation rules, for library callers that skip validate().
    const std::string why = crossCheck(cfg, core_freq_mhz);
    NDP_ASSERT(why.empty(), why);
}

std::string
RefreshDramBackend::crossCheck(const MemBackendConfig& cfg,
                               std::uint64_t core_freq_mhz)
{
    const Cycles refi = dramTunable(cfg, "refi", kRefi, core_freq_mhz);
    const Cycles rfc = dramTunable(cfg, "rfc", kRfc, core_freq_mhz);
    if (refi <= rfc) {
        return "refi must exceed rfc in core cycles (refi="
            + std::to_string(refi) + ", rfc=" + std::to_string(rfc) + ")";
    }
    return cfg.tunable("sr-idle", kSrIdle) < cfg.tunable("pd-idle", kPdIdle)
        ? "sr-idle must be >= pd-idle"
        : "";
}

Cycles
RefreshDramBackend::refreshAlign(Cycles t)
{
    const Cycles phase = t % refiCycles_;
    if (phase < rfcCycles_) {
        const Cycles stall = rfcCycles_ - phase;
        ++refreshStalls_;
        refreshStallCycles_ += stall;
        return t + stall;
    }
    return t;
}

DramResult
RefreshDramBackend::accessRow(std::uint32_t bank_idx, std::uint64_t row,
                              std::uint32_t bytes, bool is_write, Cycles now)
{
    NDP_ASSERT(bank_idx < banks_.size(), "bank=", bank_idx);
    Bank& bank = banks_[bank_idx];

    // A refresh window that elapsed since the bank's last access has
    // precharged all banks: the open row is gone.
    const std::uint64_t refresh_index = now / refiCycles_;
    if (refresh_index > bank.lastRefreshIndex) {
        bank.openRow = -1;
        bank.lastRefreshIndex = refresh_index;
    }

    // Power-state wake penalty, from the idle gap since the last access.
    Cycles issue = now;
    Cycles wake = 0;
    if (bank.lastDone > 0 && issue > bank.lastDone) {
        const Cycles gap = issue - bank.lastDone;
        if (gap >= srIdleCycles_) {
            wake = srExitCycles_;
            ++srWakes_;
            srResidencyCycles_ += gap - srIdleCycles_;
            pdResidencyCycles_ += srIdleCycles_ - pdIdleCycles_;
            bank.openRow = -1; // self-refresh loses the row buffer
        } else if (gap >= pdIdleCycles_) {
            wake = pdExitCycles_;
            ++pdWakes_;
            pdResidencyCycles_ += gap - pdIdleCycles_;
        }
    }

    // Stall out of the refresh blackout (after waking).
    issue = refreshAlign(issue + wake);

    Cycles lat;
    bool hit = false;
    if (bank.openRow == static_cast<std::int64_t>(row)) {
        lat = casCycles_;
        hit = true;
        ++rowHits_;
    } else if (bank.openRow >= 0) {
        lat = rpCycles_ + rcdCycles_ + casCycles_;
        ++rowMisses_;
        ++activations_;
    } else {
        lat = rcdCycles_ + casCycles_;
        ++rowMisses_;
        ++activations_;
    }
    bank.openRow = static_cast<std::int64_t>(row);

    const Cycles burst = burstCycles(bytes);
    const Cycles start = bank.busy.reserveFor(lat + burst, issue);
    const Cycles done = start + lat + burst;
    bank.lastDone = std::max(bank.lastDone, done);

    if (is_write) {
        bytesWritten_ += bytes;
    } else {
        bytesRead_ += bytes;
    }

    return DramResult{done, hit};
}

void
RefreshDramBackend::counters(Counters& out, const std::string& prefix) const
{
    MemBackend::counters(out, prefix);
    const CounterScope add{out, prefix};
    add("refreshStalls", [this] { return double(refreshStalls_); });
    add("refreshStallCycles", [this] { return double(refreshStallCycles_); });
    add("pdWakes", [this] { return double(pdWakes_); });
    add("srWakes", [this] { return double(srWakes_); });
    add("pdResidencyCycles", [this] { return double(pdResidencyCycles_); });
    add("srResidencyCycles", [this] { return double(srResidencyCycles_); });
}

void
RefreshDramBackend::checkpoint(ckpt::Archive& ar)
{
    ar.expect(banks_.size(), "refresh bank count mismatch");
    for (Bank& b : banks_) {
        ar.u64(b.openRow);
        ar.u64(b.lastDone);
        ar.u64(b.lastRefreshIndex);
        b.busy.checkpoint(ar);
    }
    MemBackend::checkpoint(ar);
    ar.u64(refreshStalls_);
    ar.u64(refreshStallCycles_);
    ar.u64(pdWakes_);
    ar.u64(srWakes_);
    ar.u64(pdResidencyCycles_);
    ar.u64(srResidencyCycles_);
}

} // namespace ndpext
