#include "mem/backend_sched.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metric_registry.h"

namespace ndpext {

SchedDramBackend::SchedDramBackend(const MemBackendConfig& cfg,
                                   std::uint64_t core_freq_mhz,
                                   bool row_hit_first)
    : MemBackend(cfg.timing, core_freq_mhz),
      rowHitFirst_(row_hit_first),
      queueDepth_(static_cast<std::uint32_t>(cfg.tunable("queue", 8.0))),
      starvationCap_(static_cast<std::uint32_t>(cfg.tunable("cap", 4.0))),
      banks_(cfg.timing.totalBanks())
{
    NDP_ASSERT(queueDepth_ > 0, "scheduler queue depth must be nonzero");
    NDP_ASSERT(starvationCap_ > 0, "starvation cap must be nonzero");
}

void
SchedDramBackend::retire(Bank& bank, Cycles now)
{
    auto& q = bank.queue;
    const auto first_live = std::find_if(
        q.begin(), q.end(),
        [now](const Pending& p) { return p.done > now; });
    q.erase(q.begin(), first_live);
}

DramResult
SchedDramBackend::access(Addr addr, std::uint32_t bytes, bool is_write,
                         Cycles now)
{
    const std::uint64_t row_linear = addr / params_.rowBytes;
    const std::uint32_t bank = row_linear % banks_.size();
    const std::uint64_t row = row_linear / banks_.size();
    return accessRow(bank, row, bytes, is_write, now);
}

DramResult
SchedDramBackend::accessRow(std::uint32_t bank_idx, std::uint64_t row,
                            std::uint32_t bytes, bool is_write, Cycles now)
{
    NDP_ASSERT(bank_idx < banks_.size(), "bank=", bank_idx);
    Bank& bank = banks_[bank_idx];
    auto& q = bank.queue;

    retire(bank, now);

    queueOccupancySum_ += q.size();
    ++queueSamples_;

    // Bounded queue: a full queue backpressures the requester until the
    // oldest in-flight entry completes.
    Cycles issue = now;
    if (q.size() >= queueDepth_) {
        const Cycles drained = q.front().done;
        queueStallCycles_ += drained - issue;
        ++queueFullStalls_;
        issue = drained;
        retire(bank, issue);
    }

    // Classify against the queue the request joins.
    const auto same_row = [row](const Pending& p) { return p.row == row; };
    bool hit;
    if (rowHitFirst_) {
        // FR-FCFS: a request matching the open row or any in-flight row
        // is reordered ahead of conflicting traffic and hits.
        hit = bank.openRow == static_cast<std::int64_t>(row)
              || std::any_of(q.begin(), q.end(), same_row);
        const bool bypassed_conflict =
            hit
            && std::any_of(q.begin(), q.end(), [row](const Pending& p) {
                   return p.row != row;
               });
        if (bypassed_conflict && bank.hitStreak >= starvationCap_) {
            // Starvation cap: stop jumping the queue, pay the conflict.
            hit = false;
            ++starvationRounds_;
        }
        if (hit && bypassed_conflict) {
            ++bank.hitStreak;
        } else {
            bank.hitStreak = 0;
        }
    } else {
        // FCFS: in-order service; the row buffer seen by this request is
        // whatever the youngest queued request leaves behind.
        hit = q.empty() ? bank.openRow == static_cast<std::int64_t>(row)
                        : q.back().row == row;
    }

    Cycles lat;
    if (hit) {
        lat = casCycles_;
        ++rowHits_;
    } else if (bank.openRow >= 0 || !q.empty()) {
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

    Pending entry{row, done};
    q.insert(std::upper_bound(q.begin(), q.end(), entry,
                              [](const Pending& a, const Pending& b) {
                                  return a.done < b.done;
                              }),
             entry);

    if (is_write) {
        bytesWritten_ += bytes;
    } else {
        bytesRead_ += bytes;
    }

    return DramResult{done, hit};
}

void
SchedDramBackend::report(StatGroup& stats, const std::string& prefix) const
{
    MemBackend::report(stats, prefix);
    stats.add(prefix + ".queueFullStalls",
              static_cast<double>(queueFullStalls_));
    stats.add(prefix + ".queueStallCycles",
              static_cast<double>(queueStallCycles_));
    stats.add(prefix + ".starvationRounds",
              static_cast<double>(starvationRounds_));
    stats.add(prefix + ".queueOccupancySum",
              static_cast<double>(queueOccupancySum_));
    stats.add(prefix + ".queueSamples",
              static_cast<double>(queueSamples_));
}

void
SchedDramBackend::registerMetrics(MetricRegistry& registry,
                                  const std::string& prefix)
{
    MemBackend::registerMetrics(registry, prefix);
    registry.registerCounter(prefix + ".queueFullStalls", [this]() {
        return static_cast<double>(queueFullStalls_);
    });
    registry.registerCounter(prefix + ".queueStallCycles", [this]() {
        return static_cast<double>(queueStallCycles_);
    });
    registry.registerCounter(prefix + ".starvationRounds", [this]() {
        return static_cast<double>(starvationRounds_);
    });
    registry.registerCounter(prefix + ".queueOccupancySum", [this]() {
        return static_cast<double>(queueOccupancySum_);
    });
    registry.registerCounter(prefix + ".queueSamples", [this]() {
        return static_cast<double>(queueSamples_);
    });
}

void
SchedDramBackend::reset()
{
    for (auto& bank : banks_) {
        bank = Bank{};
    }
    queueFullStalls_ = queueStallCycles_ = starvationRounds_ = 0;
    queueOccupancySum_ = queueSamples_ = 0;
    MemBackend::reset();
}

void
SchedDramBackend::serialize(ckpt::Writer& w) const
{
    w.u64(banks_.size());
    for (const Bank& b : banks_) {
        w.u64(static_cast<std::uint64_t>(b.openRow));
        w.u32(b.hitStreak);
        w.u64(b.queue.size());
        for (const Pending& p : b.queue) {
            w.u64(p.row);
            w.u64(p.done);
        }
        b.busy.serialize(w);
    }
    serializeCounters(w);
    w.u64(queueFullStalls_);
    w.u64(queueStallCycles_);
    w.u64(starvationRounds_);
    w.u64(queueOccupancySum_);
    w.u64(queueSamples_);
}

void
SchedDramBackend::deserialize(ckpt::Reader& r)
{
    const std::uint64_t n = r.u64();
    NDP_ASSERT(n == banks_.size(), "scheduler bank count mismatch");
    for (Bank& b : banks_) {
        b.openRow = static_cast<std::int64_t>(r.u64());
        b.hitStreak = r.u32();
        b.queue.resize(r.u64());
        for (Pending& p : b.queue) {
            p.row = r.u64();
            p.done = r.u64();
        }
        b.busy.deserialize(r);
    }
    deserializeCounters(r);
    queueFullStalls_ = r.u64();
    queueStallCycles_ = r.u64();
    starvationRounds_ = r.u64();
    queueOccupancySum_ = r.u64();
    queueSamples_ = r.u64();
}

} // namespace ndpext
