/**
 * @file
 * Generic set-associative cache with true-LRU replacement.
 *
 * Tracks tags only (the simulator never stores data). Used for the per-core
 * L1D SRAM caches, the baselines' metadata caches and the host LLC banks.
 *
 * Each entry is one 8-byte word: key + 1 (0 means empty), the dirty bit
 * and the entry's LRU rank in its set, the number of valid entries of the
 * set used more recently. The valid entries of a set hold the ranks
 * 0..n-1, so the least recently used one is the one ranked ways - 1 in a
 * full set. The words sit on 64 B host lines, so an 8-way set is one line.
 */

#ifndef NDPEXT_CACHE_SET_ASSOC_CACHE_H
#define NDPEXT_CACHE_SET_ASSOC_CACHE_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class SetAssocCache
{
  public:
    /** The largest key a word holds (key + 1 takes its low 59 bits). */
    static constexpr std::uint64_t kMaxKey = (1ULL << 59) - 2;
    /** The rank takes the top four bits. */
    static constexpr std::uint32_t kMaxWays = 16;

    /**
     * @param sets  Number of sets (>= 1).
     * @param ways  Associativity, 1..kMaxWays.
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
     * Look up `key` (at most kMaxKey, as for every call below); updates
     * LRU and the dirty bit on hit.
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

    /**
     * Checkpoint pass (geometry is configuration): the entry count, one
     * u64 word per entry, then the hit and miss counts. A load asserts
     * that each set's ranks are 0..n-1 over its n valid entries.
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    using Word = std::uint64_t;
    static constexpr unsigned kRankShift = 60;
    static constexpr Word kRankOne = Word{1} << kRankShift;
    static constexpr Word kDirty = Word{1} << 59;
    static constexpr Word kTagMask = kDirty - 1;

    /** Allocates on 64 B boundaries, the host's cache line. */
    template <typename T>
    struct LineAllocator
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};

        LineAllocator() = default;
        template <typename U>
        LineAllocator(const LineAllocator<U>&)
        {
        }

        T*
        allocate(std::size_t n)
        {
            return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
        }

        void
        deallocate(T* p, std::size_t)
        {
            ::operator delete(p, kAlign);
        }

        template <typename U>
        bool
        operator==(const LineAllocator<U>&) const
        {
            return true;
        }
    };

    static Word rankOf(Word w) { return w >> kRankShift; }
    /** key + 1, the tag a word stores; asserts that it fits. */
    static Word tagOf(std::uint64_t key);

    Word* setOf(std::uint64_t key);
    const Word* setOf(std::uint64_t key) const;
    /** Way of the set holding `tag`, or ways_ if none does. */
    std::uint32_t wayOf(const Word* set, Word tag) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Word, LineAllocator<Word>> words_; // sets_ * ways_, by set

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
