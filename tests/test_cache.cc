/** Tests for the generic set-associative SRAM cache. */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.h"

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
 * A SetAssocCache checkpoint is a u64 entry count, then per entry its
 * key and lastUse (u64 each) and its valid and dirty bytes, then the
 * use clock and two u64 counters.
 */
constexpr std::size_t kEntryBytes = 18;

std::size_t
lastUseAt(std::size_t entry)
{
    return 8 + entry * kEntryBytes + 8;
}

std::size_t
useClockAt(std::size_t entries)
{
    return 8 + entries * kEntryBytes;
}

void
putU64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

TEST(SetAssocCache, CheckpointKeepsUseClocksBelow2To62)
{
    SetAssocCache c(1, 2);
    c.insert(1, true);
    c.insert(2, false);
    ckpt::Writer w;
    ckpt::Archive save(w);
    c.checkpoint(save);
    std::vector<std::uint8_t> bytes = w.bytes();
    constexpr std::uint64_t kMax = (1ULL << 62) - 1;
    putU64(bytes, lastUseAt(0), kMax - 1);
    putU64(bytes, lastUseAt(1), kMax);
    putU64(bytes, useClockAt(2), kMax);

    SetAssocCache restored(1, 2);
    ckpt::Reader r(bytes);
    ckpt::Archive load(r);
    restored.checkpoint(load);
    ckpt::Writer again;
    ckpt::Archive resave(again);
    restored.checkpoint(resave);
    EXPECT_EQ(again.bytes(), bytes);
}

TEST(SetAssocCache, CheckpointRejectsUseClocksFrom2To62)
{
    SetAssocCache c(1, 2);
    c.insert(1, false);
    ckpt::Writer w;
    ckpt::Archive save(w);
    c.checkpoint(save);
    for (const std::size_t at : {lastUseAt(1), useClockAt(2)}) {
        std::vector<std::uint8_t> bytes = w.bytes();
        putU64(bytes, at, 1ULL << 62);
        SetAssocCache restored(1, 2);
        ckpt::Reader r(bytes);
        ckpt::Archive load(r);
        EXPECT_DEATH(restored.checkpoint(load), "out of range");
    }
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
