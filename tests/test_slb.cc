/** Tests for the stream lookahead buffer. */

#include <gtest/gtest.h>

#include "ndp/slb.h"

namespace ndpext {
namespace {

TEST(Slb, FirstLookupMisses)
{
    Slb slb(4, 2, 100);
    EXPECT_EQ(slb.lookup(7), 100u);
    EXPECT_EQ(slb.misses(), 1u);
    EXPECT_EQ(slb.lookup(7), 2u);
    EXPECT_EQ(slb.hits(), 1u);
}

TEST(Slb, CapacityEviction)
{
    Slb slb(2, 2, 100);
    slb.lookup(1);
    slb.lookup(2);
    slb.lookup(3); // evicts 1 (LRU)
    EXPECT_EQ(slb.lookup(2), 2u);   // still resident
    EXPECT_EQ(slb.lookup(1), 100u); // was evicted
}

TEST(Slb, LruOrderRespectsTouches)
{
    Slb slb(2, 2, 100);
    slb.lookup(1);
    slb.lookup(2);
    slb.lookup(1); // 2 becomes LRU
    slb.lookup(3); // evicts 2
    EXPECT_EQ(slb.lookup(1), 2u);
    EXPECT_EQ(slb.lookup(2), 100u);
}

TEST(Slb, InvalidateSingle)
{
    Slb slb(4, 2, 100);
    slb.lookup(5);
    slb.invalidate(5);
    EXPECT_EQ(slb.lookup(5), 100u);
}

TEST(Slb, InvalidateAll)
{
    Slb slb(4, 2, 100);
    slb.lookup(1);
    slb.lookup(2);
    slb.invalidateAll();
    EXPECT_EQ(slb.lookup(1), 100u);
    EXPECT_EQ(slb.lookup(2), 100u);
}

TEST(Slb, ReportCounts)
{
    Slb slb(4, 2, 100);
    slb.lookup(1);
    slb.lookup(1);
    EXPECT_EQ(slb.hits(), 1u);
    EXPECT_EQ(slb.misses(), 1u);
}

/** Property: a working set within capacity always hits after warmup. */
class SlbCapacityTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SlbCapacityTest, ResidentSetHits)
{
    const std::uint32_t entries = GetParam();
    Slb slb(entries, 2, 100);
    for (StreamId s = 0; s < entries; ++s) {
        slb.lookup(s);
    }
    for (StreamId s = 0; s < entries; ++s) {
        EXPECT_EQ(slb.lookup(s), 2u) << "stream " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SlbCapacityTest,
                         ::testing::Values(1u, 2u, 8u, 32u));

} // namespace
} // namespace ndpext
