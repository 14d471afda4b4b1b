/** Tests for the generic set-associative SRAM cache. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"

namespace ndpext {
namespace {

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(4, 2);
    EXPECT_FALSE(c.access(10, false));
    c.insert(10, false);
    EXPECT_TRUE(c.access(10, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    SetAssocCache c(1, 2); // one set, two ways
    c.insert(1, false);
    c.insert(2, false);
    c.access(1, false); // 2 is now LRU
    const auto ev = c.insert(3, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 2u);
    EXPECT_TRUE(c.contains(1));
    EXPECT_TRUE(c.contains(3));
    EXPECT_FALSE(c.contains(2));
}

TEST(SetAssocCache, DirtyBitPropagatesToEviction)
{
    SetAssocCache c(1, 1);
    c.insert(1, false);
    c.access(1, true); // mark dirty
    const auto ev = c.insert(2, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, CleanEvictionNotDirty)
{
    SetAssocCache c(1, 1);
    c.insert(1, false);
    const auto ev = c.insert(2, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_FALSE(ev.dirty);
}

TEST(SetAssocCache, InvalidateRemoves)
{
    SetAssocCache c(4, 2);
    c.insert(10, false);
    EXPECT_TRUE(c.invalidate(10));
    EXPECT_FALSE(c.contains(10));
    EXPECT_FALSE(c.invalidate(10));
}

TEST(SetAssocCache, InvalidateAllCounts)
{
    SetAssocCache c(4, 2);
    c.insert(1, false);
    c.insert(2, false);
    c.insert(3, false);
    EXPECT_EQ(c.invalidateAll(), 3u);
    EXPECT_EQ(c.invalidateAll(), 0u);
}

TEST(SetAssocCache, DifferentSetsDoNotConflict)
{
    SetAssocCache c(4, 1);
    c.insert(0, false); // set 0
    c.insert(1, false); // set 1
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(1));
}

TEST(SetAssocCache, FromCapacity)
{
    const auto c = SetAssocCache::fromCapacity(64_KiB, 64, 4);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.numWays(), 4u);
}

TEST(SramCache, AllocatesOnMiss)
{
    SramCache c(1_KiB, 64, 2);
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x13f, false)); // same 64 B line
    EXPECT_FALSE(c.access(0x140, false)); // next line
}

TEST(SramCache, InvalidateAllDropsEverything)
{
    SramCache c(1_KiB, 64, 2);
    c.access(0x100, false);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x100, false));
}

/*
 * A SetAssocCache checkpoint is a u64 entry count, then one u64 word per
 * entry (key + 1 in bits 0-58, 0 when empty; the dirty bit 59; the LRU
 * rank from bit 60), then the hit and miss counts.
 */
constexpr std::uint64_t kDirtyBit = 1ULL << 59;
constexpr unsigned kRankShift = 60;

std::uint64_t
getU64(const std::vector<std::uint8_t>& bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    }
    return v;
}

void
putU64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

std::vector<std::uint8_t>
imageOf(SetAssocCache& c)
{
    ckpt::Writer w;
    ckpt::Archive save(w);
    c.checkpoint(save);
    return w.bytes();
}

/** The entry words of a cache's image. */
std::vector<std::uint64_t>
wordsOf(SetAssocCache& c)
{
    const std::vector<std::uint8_t> bytes = imageOf(c);
    std::vector<std::uint64_t> out(getU64(bytes, 0));
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = getU64(bytes, 8 + 8 * i);
    }
    return out;
}

/**
 * The cache as it was before an entry became one word: 16 B entries, one
 * use clock per cache, and the least recent entry found by its last use.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways),
          entries_(static_cast<std::size_t>(sets) * ways)
    {
    }

    bool
    access(std::uint64_t key, bool is_write)
    {
        Entry* e = find(key);
        if (e == nullptr) {
            ++misses_;
            return false;
        }
        e->lastUse = ++useClock_;
        e->dirty = e->dirty || is_write;
        ++hits_;
        return true;
    }

    bool contains(std::uint64_t key) { return find(key) != nullptr; }

    SetAssocCache::Eviction
    insert(std::uint64_t key, bool dirty)
    {
        Entry* set = &entries_[(key % sets_) * ways_];
        Entry* victim = set;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lastUse < victim->lastUse) {
                victim = &set[w];
            }
        }
        SetAssocCache::Eviction ev;
        if (victim->valid) {
            ev.valid = true;
            ev.key = victim->key;
            ev.dirty = victim->dirty;
        }
        *victim = Entry{key, ++useClock_, true, dirty};
        return ev;
    }

    bool
    invalidate(std::uint64_t key)
    {
        Entry* e = find(key);
        if (e == nullptr) {
            return false;
        }
        e->valid = false;
        e->dirty = false;
        return true;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t dropped = 0;
        for (Entry& e : entries_) {
            dropped += e.valid ? 1 : 0;
            e.valid = false;
            e.dirty = false;
        }
        return dropped;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** This state in the image's word layout, way by way. */
    std::vector<std::uint64_t>
    words() const
    {
        std::vector<std::uint64_t> out(entries_.size(), 0);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            if (!e.valid) {
                continue;
            }
            const std::size_t base = i - i % ways_;
            std::uint64_t rank = 0;
            for (std::size_t j = base; j < base + ways_; ++j) {
                rank += entries_[j].valid && entries_[j].lastUse > e.lastUse
                    ? 1
                    : 0;
            }
            out[i] = (e.key + 1) | (e.dirty ? kDirtyBit : 0)
                | (rank << kRankShift);
        }
        return out;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Entry*
    find(std::uint64_t key)
    {
        Entry* set = &entries_[(key % sets_) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].key == key) {
                return &set[w];
            }
        }
        return nullptr;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Random access/insert/contains/invalidate/invalidateAll sequences give
 * the same return values as the reference, and the same words way by
 * way; halfway through, the cache is replaced by one loaded from its
 * image. Keys reach 2^58 - 1 and kMaxKey.
 */
TEST(SetAssocCache, MatchesTheUseClockReference)
{
    constexpr std::uint64_t kTopKey = (1ULL << 58) - 1;
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {1, 1}, {1, 2}, {4, 2}, {256, 4}, {4096, 8}, {512, 16}};
    Rng rng(29);
    for (const auto& [sets, ways] : shapes) {
        SCOPED_TRACE(std::to_string(sets) + "x" + std::to_string(ways));
        // A few hot sets, each with twice its ways in candidate keys,
        // the largest key of the set below 2^58 among them.
        std::vector<std::uint64_t> keys;
        const std::uint32_t hot = std::min<std::uint32_t>(sets, 8);
        for (std::uint32_t i = 0; i < hot; ++i) {
            const std::uint64_t set =
                i == 0 ? sets - 1 : rng.nextBounded(sets);
            const std::uint64_t top = (kTopKey - set) / sets;
            keys.push_back(top * sets + set);
            for (std::uint32_t k = 0; k < 2 * ways + 1; ++k) {
                keys.push_back(rng.nextBounded(top + 1) * sets + set);
            }
        }
        keys.push_back(SetAssocCache::kMaxKey);

        SetAssocCache cache(sets, ways);
        ReferenceCache ref(sets, ways);
        constexpr int kOps = 30000;
        const int every =
            std::max<int>(1, static_cast<int>(sets * ways / 16));
        for (int op = 0; op < kOps; ++op) {
            const std::uint64_t key = keys[rng.nextBounded(keys.size())];
            const bool flag = rng.nextBounded(2) == 1;
            const std::uint64_t r = rng.nextBounded(1000);
            if (r < 450) {
                const bool hit = ref.access(key, flag);
                ASSERT_EQ(cache.access(key, flag), hit) << "op " << op;
                if (!hit) {
                    const auto want = ref.insert(key, flag);
                    const auto got = cache.insert(key, flag);
                    ASSERT_EQ(got.valid, want.valid) << "op " << op;
                    ASSERT_EQ(got.key, want.key) << "op " << op;
                    ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
                }
            } else if (r < 600 && !ref.contains(key)) {
                const auto want = ref.insert(key, flag);
                const auto got = cache.insert(key, flag);
                ASSERT_EQ(got.valid, want.valid) << "op " << op;
                ASSERT_EQ(got.key, want.key) << "op " << op;
                ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
            } else if (r < 800) {
                ASSERT_EQ(cache.contains(key), ref.contains(key))
                    << "op " << op;
            } else if (r < 998) {
                ASSERT_EQ(cache.invalidate(key), ref.invalidate(key))
                    << "op " << op;
            } else {
                ASSERT_EQ(cache.invalidateAll(), ref.invalidateAll())
                    << "op " << op;
            }
            if (op % every == 0) {
                ASSERT_EQ(wordsOf(cache), ref.words()) << "op " << op;
            }
            if (op == kOps / 2) {
                const std::vector<std::uint8_t> bytes = imageOf(cache);
                SetAssocCache restored(sets, ways);
                ckpt::Reader rd(bytes);
                ckpt::Archive load(rd);
                restored.checkpoint(load);
                cache = restored;
            }
        }
        EXPECT_EQ(wordsOf(cache), ref.words());
        EXPECT_EQ(cache.hits(), ref.hits());
        EXPECT_EQ(cache.misses(), ref.misses());
    }
}

TEST(SetAssocCache, KeysAndWaysThatDoNotFitAssert)
{
    EXPECT_DEATH(SetAssocCache(1, SetAssocCache::kMaxWays + 1), "exceed");
    SetAssocCache c(1, SetAssocCache::kMaxWays);
    c.insert(SetAssocCache::kMaxKey, true);
    EXPECT_TRUE(c.contains(SetAssocCache::kMaxKey));
    EXPECT_DEATH(c.access(SetAssocCache::kMaxKey + 1, false), "too large");
    EXPECT_DEATH(c.insert(~0ULL, false), "too large");
}

TEST(SetAssocCache, CheckpointRoundTripsAFullSet)
{
    SetAssocCache c(2, 4);
    for (const std::uint64_t key : {0, 2, 4, 6}) {
        c.insert(key, key == 2); // fills set 0
    }
    c.access(4, true);
    c.access(0, false);
    c.insert(1, false);
    const std::vector<std::uint8_t> bytes = imageOf(c);
    EXPECT_EQ(bytes.size(), 8 + 8 * 8 + 16u);

    SetAssocCache restored(2, 4);
    ckpt::Reader r(bytes);
    ckpt::Archive load(r);
    restored.checkpoint(load);
    EXPECT_EQ(imageOf(restored), bytes);
    // Least recent first: 2 (dirty), 6, 4 (dirty), 0.
    for (const auto& [key, dirty] :
         {std::pair<std::uint64_t, bool>{2, true}, {6, false}, {4, true},
          {0, false}}) {
        const auto ev = restored.insert(key + 8, false);
        EXPECT_TRUE(ev.valid);
        EXPECT_EQ(ev.key, key);
        EXPECT_EQ(ev.dirty, dirty);
    }
}

TEST(SetAssocCache, CheckpointRejectsBadRanks)
{
    SetAssocCache c(1, 4);
    c.insert(1, false); // way 0, rank 1 after the next insert
    c.insert(2, false); // way 1, rank 0
    const std::vector<std::uint8_t> bytes = imageOf(c);
    ASSERT_EQ(getU64(bytes, 8), 2 | (1ULL << kRankShift));
    const auto load = [](std::vector<std::uint8_t> image) {
        SetAssocCache restored(1, 4);
        ckpt::Reader r(image);
        ckpt::Archive ar(r);
        restored.checkpoint(ar);
    };
    // Rank 4 is at least the ways, rank 0 repeats way 1's, and rank 2
    // is at least the set's two valid entries.
    for (const std::uint64_t rank : {4, 0, 2}) {
        std::vector<std::uint8_t> image = bytes;
        putU64(image, 8, 2 | (rank << kRankShift));
        EXPECT_DEATH(load(image), "bad or repeated rank");
    }
    std::vector<std::uint8_t> image = bytes;
    putU64(image, 8 + 2 * 8, kDirtyBit);
    EXPECT_DEATH(load(image), "has flags but no key");
}

/** Property: a working set no larger than capacity never conflicts. */
class CacheFitTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheFitTest, FullyAssociativeSetNeverThrashesWithinWays)
{
    const auto [sets, ways] = GetParam();
    SetAssocCache c(sets, ways);
    // Fill one set exactly to its associativity.
    for (std::uint32_t w = 0; w < ways; ++w) {
        c.insert(static_cast<std::uint64_t>(w) * sets, false);
    }
    // All remain resident.
    for (std::uint32_t w = 0; w < ways; ++w) {
        EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(w) * sets));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheFitTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 8u),
                      std::make_pair(16u, 4u), std::make_pair(64u, 16u),
                      std::make_pair(256u, 2u)));

} // namespace
} // namespace ndpext
