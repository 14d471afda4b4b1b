/**
 * @file
 * Functional tag array for one stream's allocation on one NDP unit.
 *
 * The stream cache is hash-addressed (direct-mapped by default); a slot
 * holds at most one granule (an element for indirect streams, a 1 kB block
 * for affine streams). Tags of affine blocks physically live in the SRAM
 * affine tag array; tags of indirect elements live in DRAM next to the
 * data (Section IV-C) -- in both cases the *contents* are what this class
 * tracks, while latency/energy are charged by the controller.
 *
 * Optional associativity (Fig. 9a study): slots are grouped into sets of
 * `ways` entries with LRU replacement inside the set.
 */

#ifndef NDPEXT_NDP_TAG_STORE_H
#define NDPEXT_NDP_TAG_STORE_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sim/checkpoint.h"

namespace ndpext {

class TagStore
{
  public:
    /** Tags are stored as key+1 in 32 bits; 0 means empty. */
    static constexpr std::uint64_t kMaxKey = 0xfffffffdULL;

    explicit TagStore(std::uint64_t slots = 0, std::uint32_t ways = 1)
        : ways_(ways), sets_(ways == 0 ? 0 : slots / ways),
          tags_(sets_ * ways, 0), dirty_(sets_ * ways, false)
    {
        NDP_ASSERT(ways >= 1);
        if (ways_ > 1) {
            use_.assign(tags_.size(), 0);
        }
    }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    bool usable() const { return sets_ > 0; }

    struct Result
    {
        bool hit = false;
        bool evicted = false;
        bool evictedDirty = false;
        std::uint64_t evictedKey = 0;
        /** Way the key landed in (hit way or fill way). */
        std::uint32_t way = 0;
        /** MRU way of the set *before* this access (way predictor). */
        std::uint32_t predictedWay = 0;
    };

    /**
     * Probe the set derived from `slot` for `key`; on a miss, install the
     * key, evicting the set's LRU entry.
     */
    Result
    accessFill(std::uint64_t slot, std::uint64_t key, bool is_write)
    {
        NDP_ASSERT(usable());
        NDP_ASSERT(key <= kMaxKey, "granule key too large: ", key);
        const std::uint64_t set = slot % sets_;
        const std::uint64_t base = set * ways_;
        const std::uint32_t enc = static_cast<std::uint32_t>(key + 1);

        Result res;
        res.predictedWay = mruWay(set);
        std::uint64_t victim = base;
        bool have_empty = false;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint64_t i = base + w;
            if (tags_[i] == enc) {
                res.hit = true;
                res.way = w;
                if (is_write) {
                    dirty_[i] = true;
                }
                touch(i);
                return res;
            }
            if (tags_[i] == 0) {
                if (!have_empty) {
                    victim = i; // fill the first empty way
                    have_empty = true;
                }
            } else if (!have_empty && tags_[victim] != 0
                       && lastUse(i) < lastUse(victim)) {
                victim = i;
            }
        }
        if (tags_[victim] != 0) {
            res.evicted = true;
            res.evictedDirty = dirty_[victim];
            res.evictedKey = tags_[victim] - 1;
        }
        res.way = static_cast<std::uint32_t>(victim - base);
        tags_[victim] = enc;
        dirty_[victim] = is_write;
        touch(victim);
        return res;
    }

    /** Most-recently-used way of a set (the way predictor's guess). */
    std::uint32_t
    mruWay(std::uint64_t set) const
    {
        if (ways_ == 1) {
            return 0;
        }
        const std::uint64_t base = (set % sets_) * ways_;
        std::uint32_t best = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (use_[base + w] > use_[base + best]) {
                best = w;
            }
        }
        return best;
    }

    /** Non-modifying probe. */
    bool
    probe(std::uint64_t slot, std::uint64_t key) const
    {
        if (!usable()) {
            return false;
        }
        const std::uint64_t base = (slot % sets_) * ways_;
        const std::uint32_t enc = static_cast<std::uint32_t>(key + 1);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == enc) {
                return true;
            }
        }
        return false;
    }

    /** Number of occupied entries. */
    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto t : tags_) {
            n += t != 0 ? 1 : 0;
        }
        return n;
    }

    /**
     * Copy a contiguous set range from another store (consistent-hashing
     * row survival carries whole DRAM rows across a reconfiguration).
     * Out-of-range sets are skipped; requires equal associativity.
     */
    void
    copyRange(const TagStore& src, std::uint64_t src_begin,
              std::uint64_t dst_begin, std::uint64_t count)
    {
        NDP_ASSERT(src.ways_ == ways_);
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t s = src_begin + i;
            const std::uint64_t d = dst_begin + i;
            if (s >= src.sets_ || d >= sets_) {
                continue;
            }
            for (std::uint32_t w = 0; w < ways_; ++w) {
                tags_[d * ways_ + w] = src.tags_[s * ways_ + w];
                dirty_[d * ways_ + w] = src.dirty_[s * ways_ + w];
            }
        }
    }

    /**
     * Checkpoint pass: contents only. Geometry (slots, ways) is
     * configuration the owner derives from the remap allocation, so a
     * load fills a store the owner already built with that geometry.
     */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.words(tags_.data(), tags_.size());
        for (std::size_t i = 0; i < dirty_.size(); ++i) {
            bool d = dirty_[i];
            ar.b(d);
            if (ar.loading()) {
                dirty_[i] = d;
            }
        }
        ar.words(use_.data(), use_.size());
        ar.u32(useClock_);
    }

  private:
    void
    touch(std::uint64_t i)
    {
        if (ways_ > 1) {
            use_[i] = ++useClock_;
        }
    }

    std::uint32_t
    lastUse(std::uint64_t i) const
    {
        return ways_ > 1 ? use_[i] : 0;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<std::uint32_t> tags_;
    std::vector<bool> dirty_;
    std::vector<std::uint32_t> use_; // only allocated when ways_ > 1
    std::uint32_t useClock_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NDP_TAG_STORE_H
