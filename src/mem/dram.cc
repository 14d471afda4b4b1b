#include "mem/dram.h"

#include "common/logging.h"

namespace ndpext {

DramDevice::DramDevice(const DramTimingParams& params,
                       std::uint64_t core_freq_mhz)
    : MemBackend(params, core_freq_mhz), banks_(params.totalBanks())
{
}

DramResult
DramDevice::accessRow(std::uint32_t bank_idx, std::uint64_t row,
                      std::uint32_t bytes, bool is_write, Cycles now)
{
    NDP_ASSERT(bank_idx < banks_.size(), "bank=", bank_idx);
    Bank& bank = banks_[bank_idx];

    // Row-buffer state is kept scalar (last access wins); out-of-order
    // evaluation makes it approximate, which is acceptable for hit-rate
    // statistics. Occupancy uses gap-filling intervals.
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
    const Cycles start = bank.busy.reserveFor(lat + burst, now);

    if (is_write) {
        bytesWritten_ += bytes;
    } else {
        bytesRead_ += bytes;
    }

    return DramResult{start + lat + burst, hit};
}

} // namespace ndpext
