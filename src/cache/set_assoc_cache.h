/**
 * @file
 * Generic set-associative cache with true-LRU replacement.
 *
 * Tracks tags only (the simulator never stores data). Used for the per-core
 * L1I/L1D SRAM caches, the baselines' metadata caches, the host LLC banks,
 * and the NDPExt affine tag array.
 */

#ifndef NDPEXT_CACHE_SET_ASSOC_CACHE_H
#define NDPEXT_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class SetAssocCache
{
  public:
    /**
     * @param sets  Number of sets (>= 1).
     * @param ways  Associativity (>= 1).
     */
    SetAssocCache(std::uint32_t sets, std::uint32_t ways);

    /** Build from capacity/line/ways; sets = capacity / line / ways. */
    static SetAssocCache fromCapacity(std::uint64_t capacity_bytes,
                                      std::uint32_t line_bytes,
                                      std::uint32_t ways);

    /** Result of an insert. */
    struct Eviction
    {
        bool valid = false;  ///< an entry was evicted
        std::uint64_t key = 0;
        bool dirty = false;
    };

    /**
     * Look up `key`; updates LRU and the dirty bit on hit.
     * @return true on hit.
     */
    bool access(std::uint64_t key, bool is_write);

    /** Look up without modifying any state. */
    bool contains(std::uint64_t key) const;

    /** Insert `key` (must not be present), evicting LRU if needed. */
    Eviction insert(std::uint64_t key, bool dirty);

    /** Remove `key` if present. @return true if it was present. */
    bool invalidate(std::uint64_t key);

    /** Drop everything (bulk invalidation). @return entries dropped. */
    std::uint64_t invalidateAll();

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Checkpoint pass (geometry is configuration; contents travel). */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.expect(entries_.size(), "cache geometry mismatch");
        for (Entry& e : entries_) {
            // Bit-fields bind no references: go through locals.
            std::uint64_t last_use = e.lastUse;
            bool valid = e.valid;
            bool dirty = e.dirty;
            ar.u64(e.key);
            ar.u64(last_use);
            ar.b(valid);
            ar.b(dirty);
            if (ar.loading()) {
                NDP_ASSERT(last_use < kUseClockLimit,
                           "cache lastUse out of range: ", last_use);
                e.lastUse = last_use;
                e.valid = valid;
                e.dirty = dirty;
            }
        }
        ar.u64(useClock_);
        NDP_ASSERT(useClock_ < kUseClockLimit,
                   "cache use clock out of range: ", useClock_);
        ar.u64(hits_);
        ar.u64(misses_);
    }

  private:
    /** useClock_ never gets here: at one use per ns it takes 146 years. */
    static constexpr std::uint64_t kUseClockLimit = 1ULL << 62;

    /** 16 B: the flags share a word with a 62-bit lastUse. */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse : 62 = 0;
        bool valid : 1 = false;
        bool dirty : 1 = false;
    };
    static_assert(sizeof(Entry) == 16);

    std::uint32_t setOf(std::uint64_t key) const { return key % sets_; }
    Entry* find(std::uint64_t key);
    const Entry* find(std::uint64_t key) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_; // sets_ * ways_, row-major by set
    std::uint64_t useClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * A byte-addressed cache front-end: maps addresses to line keys and
 * performs the allocate-on-miss policy. Models the L1 caches of Table II.
 */
class SramCache
{
  public:
    SramCache(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
              std::uint32_t ways);

    /**
     * Access a byte range (must not span lines after alignment of the
     * generators; spanning ranges touch only their first line, which is
     * adequate at 8 B default request size).
     * @return true on hit; on miss the line is allocated (write-allocate).
     */
    bool access(Addr addr, bool is_write);

    /** Drop all lines. */
    void invalidateAll() { tags_.invalidateAll(); }

    std::uint32_t lineBytes() const { return lineBytes_; }
    const SetAssocCache& tags() const { return tags_; }

    void checkpoint(ckpt::Archive& ar) { tags_.checkpoint(ar); }

  private:
    std::uint32_t lineBytes_;
    SetAssocCache tags_;
};

} // namespace ndpext

#endif // NDPEXT_CACHE_SET_ASSOC_CACHE_H
