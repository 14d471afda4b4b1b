#include "ndp/slb.h"

#include "common/logging.h"

namespace ndpext {

Slb::Slb(std::uint32_t entries, Cycles hit_cycles, Cycles miss_cycles)
    : entries_(entries), hitCycles_(hit_cycles), missCycles_(miss_cycles)
{
    NDP_ASSERT(entries > 0);
}

Cycles
Slb::lookupScan(StreamId sid)
{
    Entry* lru = &entries_[0];
    for (auto& e : entries_) {
        if (e.valid && e.sid == sid) {
            e.lastUse = ++useClock_;
            ++hits_;
            lastHit_ = &e;
            return hitCycles_;
        }
        if (!e.valid) {
            lru = &e;
        } else if (lru->valid && e.lastUse < lru->lastUse) {
            lru = &e;
        }
    }
    ++misses_;
    lru->sid = sid;
    lru->valid = true;
    lru->lastUse = ++useClock_;
    lastHit_ = lru;
    return missCycles_;
}

void
Slb::invalidate(StreamId sid)
{
    for (auto& e : entries_) {
        if (e.valid && e.sid == sid) {
            e.valid = false;
            if (lastHit_ == &e) {
                lastHit_ = nullptr;
            }
            return;
        }
    }
}

void
Slb::invalidateAll()
{
    for (auto& e : entries_) {
        e.valid = false;
    }
    lastHit_ = nullptr;
}

} // namespace ndpext
