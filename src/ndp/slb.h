/**
 * @file
 * Stream Lookahead Buffer (Section IV-C, Fig. 3c).
 *
 * Each NDP unit caches simplified remap-table entries for up to 32 streams
 * in a TCAM-searchable SRAM structure (4.6 kB). A hit resolves the stream
 * and its in-group shares in one cycle class; a miss asks the host
 * processor to read the full stream remap table and refill the entry,
 * like a TLB walk (the paper's analogy to virtual memory translation).
 *
 * The functional content of an entry (shares, row base) lives in the
 * StreamRemapTable; the SLB models *which* streams are locally resident
 * and charges the refill penalty.
 */

#ifndef NDPEXT_NDP_SLB_H
#define NDPEXT_NDP_SLB_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class Slb
{
  public:
    /**
     * @param entries      Capacity in streams (paper: 32).
     * @param hit_cycles   TCAM search latency on a hit.
     * @param miss_cycles  Host round trip to refill from the remap table.
     */
    Slb(std::uint32_t entries = 32, Cycles hit_cycles = 2,
        Cycles miss_cycles = 1000);

    /**
     * Look up a stream; installs it on a miss (LRU eviction).
     * @return lookup latency in cycles.
     *
     * Inline fast path: the common case (same stream as the previous
     * hit at this unit) touches one cached entry instead of scanning
     * the TCAM array. Side effects (use clock, hit count) are exactly
     * those of the full scan.
     */
    Cycles
    lookup(StreamId sid)
    {
        if (lastHit_ != nullptr && lastHit_->valid
            && lastHit_->sid == sid) {
            lastHit_->lastUse = ++useClock_;
            ++hits_;
            return hitCycles_;
        }
        return lookupScan(sid);
    }

    /** Drop one stream (remap-table update invalidates SLB copies). */
    void invalidate(StreamId sid);

    /** Drop everything (epoch reconfiguration). */
    void invalidateAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Checkpoint pass (capacity/latencies are configuration). */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.expect(entries_.size(), "SLB capacity mismatch");
        for (Entry& e : entries_) {
            ar.u32(e.sid);
            ar.u64(e.lastUse);
            ar.b(e.valid);
        }
        // lastHit_ as an index so the memoized fast path survives.
        std::uint64_t last = lastHit_ == nullptr
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(lastHit_ - entries_.data());
        ar.u64(last);
        if (ar.loading()) {
            lastHit_ =
                last < entries_.size() ? entries_.data() + last : nullptr;
        }
        ar.u64(useClock_);
        ar.u64(hits_);
        ar.u64(misses_);
    }

  private:
    struct Entry
    {
        StreamId sid = kNoStream;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** Full TCAM scan (miss/refill path). */
    Cycles lookupScan(StreamId sid);

    std::vector<Entry> entries_;
    /** Most recently hit/installed entry (entries_ never reallocates). */
    Entry* lastHit_ = nullptr;
    Cycles hitCycles_;
    Cycles missCycles_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NDP_SLB_H
