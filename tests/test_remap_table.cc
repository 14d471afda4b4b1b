/** Tests for the stream remap table (RShares/RRowBase/RGroups). */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "ndp/remap_table.h"

namespace ndpext {
namespace {

constexpr std::uint32_t kUnits = 8;
constexpr std::uint32_t kRowsPerUnit = 64;
constexpr std::uint32_t kRowBytes = 2048;

struct Fixture
{
    MeshTopology topo{2, 1, 2, 2}; // 2 stacks x 4 units = 8 units
    NocParams nocParams;
    NocModel noc{topo, nocParams};
};

StreamAlloc
twoGroupAlloc()
{
    StreamAlloc a(kUnits);
    a.numGroups = 2;
    a.shareRows = {8, 6, 0, 0, 4, 2, 0, 0};
    a.groupOf = {0, 0, 0, 0, 1, 1, 0, 0};
    a.rowBase = {0, 0, 0, 0, 0, 0, 0, 0};
    return a;
}

TEST(StreamAlloc, TotalsAndGroups)
{
    const auto a = twoGroupAlloc();
    EXPECT_EQ(a.totalRows(), 20u);
    EXPECT_EQ(a.rowsOfGroup(0), 14u);
    EXPECT_EQ(a.rowsOfGroup(1), 6u);
    EXPECT_FALSE(a.empty());
}

TEST(RemapTable, AllocAccounting)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    EXPECT_EQ(t.freeRows(0), kRowsPerUnit);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    EXPECT_EQ(t.freeRows(0), kRowsPerUnit - 8);
    EXPECT_EQ(t.freeRows(4), kRowsPerUnit - 4);
    t.clearAlloc(0);
    EXPECT_EQ(t.freeRows(0), kRowsPerUnit);
    EXPECT_EQ(t.alloc(0), nullptr);
}

TEST(RemapTable, UnitSlotsFromShares)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    EXPECT_EQ(t.unitSlots(0, 0), 8u * kRowBytes / 8);
    EXPECT_EQ(t.unitSlots(0, 2), 0u);
}

TEST(RemapTable, ServingGroupPrefersNearby)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    // Units 0/1 (stack 0) hold group 0; units 4/5 (stack 1) hold group 1.
    EXPECT_EQ(t.servingGroup(0, 0), 0u);
    EXPECT_EQ(t.servingGroup(0, 1), 0u);
    EXPECT_EQ(t.servingGroup(0, 4), 1u);
    EXPECT_EQ(t.servingGroup(0, 5), 1u);
}

TEST(RemapTable, LocateStaysInServingGroup)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    for (std::uint64_t g = 0; g < 5000; ++g) {
        const auto loc0 = t.locate(0, g, /*from=*/0);
        EXPECT_TRUE(loc0.unit == 0 || loc0.unit == 1) << loc0.unit;
        const auto loc1 = t.locate(0, g, /*from=*/4);
        EXPECT_TRUE(loc1.unit == 4 || loc1.unit == 5) << loc1.unit;
    }
}

TEST(RemapTable, LocateRowWithinAllocation)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    auto alloc = twoGroupAlloc();
    alloc.rowBase = {10, 20, 0, 0, 30, 40, 0, 0};
    t.setAlloc(0, alloc, 8, f.noc);
    for (std::uint64_t g = 0; g < 5000; ++g) {
        const auto loc = t.locate(0, g, 0);
        const std::uint32_t base = alloc.rowBase[loc.unit];
        const std::uint32_t rows = alloc.shareRows[loc.unit];
        EXPECT_GE(loc.deviceRow, base);
        EXPECT_LT(loc.deviceRow, base + rows);
        EXPECT_LT(loc.unitSlot, t.unitSlots(0, loc.unit));
    }
}

TEST(RemapTable, LocateSpreadsAcrossUnitsByShare)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    std::map<UnitId, int> counts;
    for (std::uint64_t g = 0; g < 20000; ++g) {
        ++counts[t.locate(0, g, 0).unit];
    }
    // Unit 0 has 8 rows vs unit 1's 6: expect roughly 8:6 split.
    const double ratio =
        static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
    EXPECT_NEAR(ratio, 8.0 / 6.0, 0.15);
}

TEST(RemapTable, OverAllocationFailsValidation)
{
    Fixture f;
    StreamRemapTable t(kUnits, 4, kRowBytes, RemapMode::Modulo);
    StreamAlloc a(kUnits);
    a.numGroups = 1;
    a.shareRows[0] = 5; // > 4 rows per unit
    t.setAlloc(0, a, 8, f.noc); // batch members may transiently overshoot
    EXPECT_EQ(t.freeRows(0), 0u);
    EXPECT_DEATH(t.validateCapacity(), "over-allocated");
}

TEST(RemapTable, ConsistentHashSurvivalOnShrink)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes,
                       RemapMode::ConsistentHash);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    auto shrunk = twoGroupAlloc();
    shrunk.shareRows = {6, 6, 0, 0, 4, 2, 0, 0}; // unit 0 loses 2 rows
    t.setAlloc(0, shrunk, 8, f.noc);
    // 18 of the 20 old rows keep their spot: unit 0 keeps 6 of its 8.
    EXPECT_EQ(t.survivingRows(0).size(), 18u);
    std::uint32_t unit0 = 0;
    for (const auto& row : t.survivingRows(0)) {
        unit0 += row.unit == 0 ? 1 : 0;
    }
    EXPECT_EQ(unit0, 6u);
}

TEST(RemapTable, ModuloSurvivalOnlyWhenIdentical)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, RemapMode::Modulo);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc);
    t.setAlloc(0, twoGroupAlloc(), 8, f.noc); // identical
    EXPECT_EQ(t.survivingRows(0).size(), twoGroupAlloc().totalRows());
    auto changed = twoGroupAlloc();
    changed.shareRows[0] = 7;
    t.setAlloc(0, changed, 8, f.noc);
    EXPECT_TRUE(t.survivingRows(0).empty());
}

TEST(RemapTable, ConsistentHashKeepsMostMappingsStable)
{
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes,
                       RemapMode::ConsistentHash);
    StreamAlloc a(kUnits);
    a.numGroups = 1;
    a.shareRows = {16, 16, 16, 16, 0, 0, 0, 0};
    t.setAlloc(0, a, 8, f.noc);
    std::map<std::uint64_t, CacheLocation> before;
    for (std::uint64_t g = 0; g < 4000; ++g) {
        before[g] = t.locate(0, g, 0);
    }
    // Shrink one unit slightly.
    auto b = a;
    b.shareRows[3] = 12;
    t.setAlloc(0, b, 8, f.noc);
    int moved = 0;
    for (std::uint64_t g = 0; g < 4000; ++g) {
        const auto loc = t.locate(0, g, 0);
        if (loc.unit != before[g].unit
            || loc.deviceRow != before[g].deviceRow) {
            ++moved;
        }
    }
    // Only ~4/64 of the spots vanished; far fewer than half the keys move.
    EXPECT_LT(moved, 4000 / 2);
    EXPECT_GT(moved, 0);
}

/** A resolved location as (unit, deviceRow, unitSlot). */
using Where = std::tuple<UnitId, std::uint32_t, std::uint64_t>;

/** Where granules 0 .. n-1 of `sid` resolve for an access from `from`. */
std::vector<Where>
locateFirst(const StreamRemapTable& t, StreamId sid, std::uint64_t n,
            UnitId from)
{
    std::vector<Where> out;
    for (std::uint64_t g = 0; g < n; ++g) {
        const CacheLocation loc = t.locate(sid, g, from);
        out.emplace_back(loc.unit, loc.deviceRow, loc.unitSlot);
    }
    return out;
}

// The pinned locations below were recorded with a whole-ring sort and a
// binary search over it, the reference the bucketed ring must reproduce;
// any change to the ring order or the lookup shows here.

TEST(RemapTable, OneSpotRingLocationsArePinned)
{
    // One unit, one 256 B row, one vnode: one spot, one bucket; every
    // granule lands on that row, at slot mix64(h) % 32.
    MeshTopology topo{1, 1, 1, 1};
    NocParams params;
    NocModel noc{topo, params};
    StreamRemapTable t(1, 1, 256, RemapMode::ConsistentHash);
    StreamAlloc a(1);
    a.numGroups = 1;
    a.shareRows = {1};
    t.setAlloc(3, a, 8, noc);
    const std::vector<Where> pinned = {
        {0, 0, 2},  {0, 0, 9},  {0, 0, 27}, {0, 0, 16},
        {0, 0, 10}, {0, 0, 14}, {0, 0, 31}, {0, 0, 11},
    };
    EXPECT_EQ(locateFirst(t, 3, pinned.size(), 0), pinned);
}

TEST(RemapTable, WrappingRingLocationsArePinned)
{
    // Two units x two 512 B rows x two vnodes: eight spots in two
    // buckets. Granules 7, 19 and 21 hash past the last spot and wrap to
    // the first one (unit 0, row offset 1).
    MeshTopology topo{1, 1, 2, 1};
    NocParams params;
    NocModel noc{topo, params};
    StreamRemapTable t(2, 4, 512, RemapMode::ConsistentHash);
    StreamAlloc a(2);
    a.numGroups = 1;
    a.shareRows = {2, 2};
    a.rowBase = {1, 0};
    t.setAlloc(1, a, 64, noc);
    const std::vector<Where> pinned = {
        {0, 1, 7},  {1, 0, 1},  {0, 2, 8},  {1, 0, 0},  {0, 2, 13},
        {1, 0, 0},  {0, 2, 10}, {0, 2, 10}, {1, 1, 11}, {1, 0, 6},
        {0, 1, 0},  {1, 0, 4},  {1, 0, 2},  {1, 0, 0},  {1, 0, 1},
        {1, 1, 14}, {1, 0, 0},  {0, 1, 4},  {0, 2, 13}, {0, 2, 10},
        {1, 0, 5},  {0, 2, 10}, {1, 0, 1},  {1, 0, 0},
    };
    EXPECT_EQ(locateFirst(t, 1, pinned.size(), 0), pinned);
}

TEST(RemapTable, ReplicatedRingLocationsArePinned)
{
    // Two replication groups, each with its own ring: unit 0 is served
    // by group 0 (units 0 and 1), unit 4 by group 1 (units 4 and 5).
    Fixture f;
    StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes,
                       RemapMode::ConsistentHash);
    auto alloc = twoGroupAlloc();
    alloc.rowBase = {10, 20, 0, 0, 30, 40, 0, 0};
    t.setAlloc(0, alloc, 8, f.noc);
    const std::vector<Where> group0 = {
        {1, 22, 621},  {0, 16, 1595}, {1, 20, 157},  {1, 21, 469},
        {0, 11, 441},  {0, 15, 1475}, {1, 21, 391},  {0, 17, 1976},
        {0, 13, 769},  {0, 16, 1688}, {0, 15, 1367}, {0, 14, 1244},
    };
    const std::vector<Where> group1 = {
        {5, 41, 365}, {4, 30, 59},  {4, 30, 157}, {4, 32, 725},
        {4, 32, 697}, {4, 33, 963}, {5, 41, 391}, {4, 33, 952},
        {5, 40, 1},   {4, 32, 664}, {4, 31, 343}, {5, 41, 476},
    };
    EXPECT_EQ(locateFirst(t, 0, group0.size(), 0), group0);
    EXPECT_EQ(locateFirst(t, 0, group1.size(), 4), group1);
}

/** Property sweep over granule sizes: locate() is always in-bounds. */
class RemapGranuleTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RemapGranuleTest, LocateInBounds)
{
    Fixture f;
    const std::uint32_t granule = GetParam();
    for (const auto mode :
         {RemapMode::Modulo, RemapMode::ConsistentHash}) {
        StreamRemapTable t(kUnits, kRowsPerUnit, kRowBytes, mode);
        t.setAlloc(0, twoGroupAlloc(), granule, f.noc);
        for (std::uint64_t g = 0; g < 2000; ++g) {
            for (UnitId from = 0; from < kUnits; ++from) {
                const auto loc = t.locate(0, g, from);
                ASSERT_LT(loc.unit, kUnits);
                ASSERT_GT(t.unitSlots(0, loc.unit), loc.unitSlot);
                ASSERT_LT(loc.deviceRow, kRowsPerUnit);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Granules, RemapGranuleTest,
                         ::testing::Values(4u, 8u, 64u, 128u, 1024u,
                                           4096u));

} // namespace
} // namespace ndpext
