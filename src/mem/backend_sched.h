/**
 * @file
 * Scheduling memory-controller backends: FR-FCFS and FCFS.
 *
 * Both model a bounded per-bank request queue in front of the banked
 * row-buffer state machine. The atomic engine issues requests with
 * monotone-ish but reorderable timestamps, so the queue is kept as the
 * set of in-flight (not yet retired) requests per bank, ordered by
 * completion time:
 *
 *  - Retire every queued request whose completion is <= now.
 *  - If the queue is still at capacity, the new request stalls until the
 *    oldest in-flight entry drains (queueFullStalls / queueStallCycles).
 *  - Classify the access:
 *      FR-FCFS  row hit if the row matches the open row OR any queued
 *               request targets the same row (the controller reorders it
 *               ahead of row-conflicting traffic). A starvation cap
 *               bounds consecutive reordered hits per bank: after
 *               `cap` hits in a row while conflicting requests wait, the
 *               next same-row access is demoted to a conflict
 *               (starvationRounds counter) so older rows make progress.
 *      FCFS     requests are serviced strictly in arrival order, so a
 *               row hit requires matching the row of the *youngest*
 *               queued request (the row buffer the bank will hold when
 *               this request reaches the head), or the open row when
 *               the queue is idle.
 *  - Latency math and bank occupancy then follow the banked model.
 *
 * Tunables: queue (entries per bank, default 8), cap (FR-FCFS starvation
 * cap, default 4; ignored by FCFS).
 */

#ifndef NDPEXT_MEM_BACKEND_SCHED_H
#define NDPEXT_MEM_BACKEND_SCHED_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/mem_backend.h"
#include "sim/resource.h"

namespace ndpext {

class SchedDramBackend : public MemBackend
{
  public:
    SchedDramBackend(const MemBackendConfig& cfg,
                     std::uint64_t core_freq_mhz, bool row_hit_first);

    DramResult accessRow(std::uint32_t bank, std::uint64_t row,
                         std::uint32_t bytes, bool is_write,
                         Cycles now) override;

    void counters(Counters& out, const std::string& prefix) const override;

    void checkpoint(ckpt::Archive& ar) override;

  private:
    /** One in-flight request held in a bank queue. */
    struct Pending
    {
        std::uint64_t row = 0;
        Cycles done = 0;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        /** Consecutive reordered row hits while conflicts waited. */
        std::uint32_t hitStreak = 0;
        /** In-flight requests, sorted by ascending completion time. */
        std::vector<Pending> queue;
        BandwidthResource busy{1.0};
    };

    void retire(Bank& bank, Cycles now);

    const bool rowHitFirst_;
    std::uint32_t queueDepth_;
    std::uint32_t starvationCap_;
    std::vector<Bank> banks_;

    // Scheduler counters
    std::uint64_t queueFullStalls_ = 0;
    std::uint64_t queueStallCycles_ = 0;
    std::uint64_t starvationRounds_ = 0;
    std::uint64_t queueOccupancySum_ = 0; ///< occupancy sampled per access
    std::uint64_t queueSamples_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_MEM_BACKEND_SCHED_H
