#include "mem/backend_refresh.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metric_registry.h"

namespace ndpext {

namespace {

Cycles
toCoreCyclesRoundUp(double dram_cycles, double dram_mhz, double core_mhz)
{
    const double c = dram_cycles * core_mhz / dram_mhz;
    const auto whole = static_cast<Cycles>(c);
    return whole + (static_cast<double>(whole) < c ? 1 : 0);
}

} // namespace

RefreshDramBackend::RefreshDramBackend(const MemBackendConfig& cfg,
                                       std::uint64_t core_freq_mhz)
    : MemBackend(cfg.timing, core_freq_mhz),
      // JEDEC defaults: tREFI 3.9 us, tRFC ~295 ns at the device clock.
      refiCycles_(toCoreCyclesRoundUp(
          cfg.tunable("refi", 9360.0), cfg.timing.clockMhz,
          static_cast<double>(core_freq_mhz))),
      rfcCycles_(toCoreCyclesRoundUp(
          cfg.tunable("rfc", 708.0), cfg.timing.clockMhz,
          static_cast<double>(core_freq_mhz))),
      pdIdleCycles_(static_cast<Cycles>(cfg.tunable("pd-idle", 2000.0))),
      pdExitCycles_(static_cast<Cycles>(cfg.tunable("pd-exit", 30.0))),
      srIdleCycles_(static_cast<Cycles>(cfg.tunable("sr-idle", 200000.0))),
      srExitCycles_(static_cast<Cycles>(cfg.tunable("sr-exit", 500.0))),
      banks_(cfg.timing.totalBanks())
{
    NDP_ASSERT(refiCycles_ > rfcCycles_,
               "tREFI must exceed tRFC (refi=", refiCycles_,
               " rfc=", rfcCycles_, " core cycles)");
    NDP_ASSERT(srIdleCycles_ >= pdIdleCycles_,
               "self-refresh threshold below power-down threshold");
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
RefreshDramBackend::access(Addr addr, std::uint32_t bytes, bool is_write,
                           Cycles now)
{
    const std::uint64_t row_linear = addr / params_.rowBytes;
    const std::uint32_t bank = row_linear % banks_.size();
    const std::uint64_t row = row_linear / banks_.size();
    return accessRow(bank, row, bytes, is_write, now);
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
RefreshDramBackend::report(StatGroup& stats,
                           const std::string& prefix) const
{
    MemBackend::report(stats, prefix);
    stats.add(prefix + ".refreshStalls",
              static_cast<double>(refreshStalls_));
    stats.add(prefix + ".refreshStallCycles",
              static_cast<double>(refreshStallCycles_));
    stats.add(prefix + ".pdWakes", static_cast<double>(pdWakes_));
    stats.add(prefix + ".srWakes", static_cast<double>(srWakes_));
    stats.add(prefix + ".pdResidencyCycles",
              static_cast<double>(pdResidencyCycles_));
    stats.add(prefix + ".srResidencyCycles",
              static_cast<double>(srResidencyCycles_));
}

void
RefreshDramBackend::registerMetrics(MetricRegistry& registry,
                                    const std::string& prefix)
{
    MemBackend::registerMetrics(registry, prefix);
    registry.registerCounter(prefix + ".refreshStalls", [this]() {
        return static_cast<double>(refreshStalls_);
    });
    registry.registerCounter(prefix + ".refreshStallCycles", [this]() {
        return static_cast<double>(refreshStallCycles_);
    });
    registry.registerCounter(prefix + ".pdWakes", [this]() {
        return static_cast<double>(pdWakes_);
    });
    registry.registerCounter(prefix + ".srWakes", [this]() {
        return static_cast<double>(srWakes_);
    });
    registry.registerCounter(prefix + ".pdResidencyCycles", [this]() {
        return static_cast<double>(pdResidencyCycles_);
    });
    registry.registerCounter(prefix + ".srResidencyCycles", [this]() {
        return static_cast<double>(srResidencyCycles_);
    });
}

void
RefreshDramBackend::reset()
{
    for (auto& bank : banks_) {
        bank = Bank{};
    }
    refreshStalls_ = refreshStallCycles_ = 0;
    pdWakes_ = srWakes_ = 0;
    pdResidencyCycles_ = srResidencyCycles_ = 0;
    MemBackend::reset();
}

void
RefreshDramBackend::serialize(ckpt::Writer& w) const
{
    w.u64(banks_.size());
    for (const Bank& b : banks_) {
        w.u64(static_cast<std::uint64_t>(b.openRow));
        w.u64(b.lastDone);
        w.u64(b.lastRefreshIndex);
        b.busy.serialize(w);
    }
    serializeCounters(w);
    w.u64(refreshStalls_);
    w.u64(refreshStallCycles_);
    w.u64(pdWakes_);
    w.u64(srWakes_);
    w.u64(pdResidencyCycles_);
    w.u64(srResidencyCycles_);
}

void
RefreshDramBackend::deserialize(ckpt::Reader& r)
{
    const std::uint64_t n = r.u64();
    NDP_ASSERT(n == banks_.size(), "refresh bank count mismatch");
    for (Bank& b : banks_) {
        b.openRow = static_cast<std::int64_t>(r.u64());
        b.lastDone = r.u64();
        b.lastRefreshIndex = r.u64();
        b.busy.deserialize(r);
    }
    deserializeCounters(r);
    refreshStalls_ = r.u64();
    refreshStallCycles_ = r.u64();
    pdWakes_ = r.u64();
    srWakes_ = r.u64();
    pdResidencyCycles_ = r.u64();
    srResidencyCycles_ = r.u64();
}

} // namespace ndpext
