#include "cache/set_assoc_cache.h"

#include "common/bitutils.h"
#include "common/logging.h"

namespace ndpext {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways),
      words_(static_cast<std::size_t>(sets) * ways)
{
    NDP_ASSERT(sets > 0 && ways > 0);
    NDP_ASSERT(ways <= kMaxWays, "cache ways ", ways, " exceed ",
               kMaxWays);
}

SetAssocCache
SetAssocCache::fromCapacity(std::uint64_t capacity_bytes,
                            std::uint32_t line_bytes, std::uint32_t ways)
{
    NDP_ASSERT(line_bytes > 0 && ways > 0);
    const std::uint64_t lines = capacity_bytes / line_bytes;
    NDP_ASSERT(lines >= ways, "capacity too small: ", capacity_bytes);
    return SetAssocCache(static_cast<std::uint32_t>(lines / ways), ways);
}

SetAssocCache::Word
SetAssocCache::tagOf(std::uint64_t key)
{
    NDP_ASSERT(key <= kMaxKey, "cache key too large: ", key);
    return key + 1;
}

SetAssocCache::Word*
SetAssocCache::setOf(std::uint64_t key)
{
    return words_.data() + static_cast<std::size_t>(key % sets_) * ways_;
}

const SetAssocCache::Word*
SetAssocCache::setOf(std::uint64_t key) const
{
    return const_cast<SetAssocCache*>(this)->setOf(key);
}

std::uint32_t
SetAssocCache::wayOf(const Word* set, Word tag) const
{
    std::uint32_t w = 0;
    while (w < ways_ && (set[w] & kTagMask) != tag) {
        ++w;
    }
    return w;
}

bool
SetAssocCache::access(std::uint64_t key, bool is_write)
{
    Word* set = setOf(key);
    const std::uint32_t hit = wayOf(set, tagOf(key));
    if (hit == ways_) {
        ++misses_;
        return false;
    }
    // The entries used since the hit one age by one; it becomes rank 0.
    const Word rank = rankOf(set[hit]);
    if (rank != 0) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w] != 0 && rankOf(set[w]) < rank) {
                set[w] += kRankOne;
            }
        }
        set[hit] -= rank << kRankShift;
    }
    if (is_write) {
        set[hit] |= kDirty;
    }
    ++hits_;
    return true;
}

bool
SetAssocCache::contains(std::uint64_t key) const
{
    return wayOf(setOf(key), tagOf(key)) != ways_;
}

SetAssocCache::Eviction
SetAssocCache::insert(std::uint64_t key, bool dirty)
{
    const Word tag = tagOf(key);
    Word* set = setOf(key);
    // The victim is the first empty way, else the least recently used
    // (highest rank). Every valid entry ages by one in the same walk, as
    // the new entry is the most recent; the victim's rank may wrap off
    // the word's top, but its key and dirty bit stay for the eviction.
    std::uint32_t victim = 0;
    Word victim_rank = 0;
    bool empty = false;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Word e = set[w];
        NDP_ASSERT((e & kTagMask) != tag, "double insert of key ", key);
        if (e == 0) {
            if (!empty) {
                victim = w;
                empty = true;
            }
            continue;
        }
        if (!empty && rankOf(e) >= victim_rank) {
            victim = w;
            victim_rank = rankOf(e);
        }
        set[w] = e + kRankOne;
    }

    Eviction ev;
    if (!empty) {
        ev.valid = true;
        ev.key = (set[victim] & kTagMask) - 1;
        ev.dirty = (set[victim] & kDirty) != 0;
    }
    set[victim] = tag | (dirty ? kDirty : 0);
    return ev;
}

bool
SetAssocCache::invalidate(std::uint64_t key)
{
    Word* set = setOf(key);
    const std::uint32_t gone = wayOf(set, tagOf(key));
    if (gone == ways_) {
        return false;
    }
    // Close the gap: the entries used before it move up one rank.
    const Word rank = rankOf(set[gone]);
    set[gone] = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w] != 0 && rankOf(set[w]) > rank) {
            set[w] -= kRankOne;
        }
    }
    return true;
}

std::uint64_t
SetAssocCache::invalidateAll()
{
    std::uint64_t dropped = 0;
    for (Word& w : words_) {
        dropped += w != 0 ? 1 : 0;
        w = 0;
    }
    return dropped;
}

void
SetAssocCache::checkpoint(ckpt::Archive& ar)
{
    ar.expect(words_.size(), "cache geometry mismatch");
    ar.words(words_.data(), words_.size());
    if (ar.loading()) {
        for (std::size_t base = 0; base < words_.size(); base += ways_) {
            const Word* set = words_.data() + base;
            std::uint32_t valid = 0;
            for (std::uint32_t w = 0; w < ways_; ++w) {
                NDP_ASSERT(set[w] == 0 || (set[w] & kTagMask) != 0,
                           "cache word ", set[w], " has flags but no key");
                valid += set[w] != 0 ? 1 : 0;
            }
            std::uint32_t seen = 0; // one bit per rank
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (set[w] == 0) {
                    continue;
                }
                const Word rank = rankOf(set[w]);
                NDP_ASSERT(rank < valid && ((seen >> rank) & 1U) == 0,
                           "cache set ", base / ways_, " of ", valid,
                           " entries has a bad or repeated rank ", rank);
                seen |= 1U << rank;
            }
        }
    }
    ar.u64(hits_);
    ar.u64(misses_);
}

SramCache::SramCache(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
                     std::uint32_t ways)
    : lineBytes_(line_bytes),
      tags_(SetAssocCache::fromCapacity(capacity_bytes, line_bytes, ways))
{
}

bool
SramCache::access(Addr addr, bool is_write)
{
    const std::uint64_t line = addr / lineBytes_;
    if (tags_.access(line, is_write)) {
        return true;
    }
    tags_.insert(line, is_write);
    return false;
}

} // namespace ndpext
