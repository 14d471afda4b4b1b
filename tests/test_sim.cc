/** Tests for the simulation substrate: stats and resources. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/breakdown.h"
#include "sim/resource.h"
#include "sim/stats.h"

namespace ndpext {
namespace {

TEST(StatGroup, AddSetGet)
{
    StatGroup s;
    s.add("a.x", 2.0);
    s.add("a.x", 3.0);
    s.set("a.y", 7.0);
    EXPECT_DOUBLE_EQ(s.get("a.x"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("a.y"), 7.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("a.x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatGroup, MergeWithPrefix)
{
    StatGroup a;
    a.add("x", 1.0);
    StatGroup b;
    b.merge(a, "unit0");
    EXPECT_DOUBLE_EQ(b.get("unit0.x"), 1.0);
}

TEST(StatGroup, SumPrefix)
{
    StatGroup s;
    s.add("dram.reads", 5.0);
    s.add("dram.writes", 3.0);
    s.add("noc.hops", 11.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("dram."), 8.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("noc."), 11.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("zzz"), 0.0);
}

TEST(StatGroup, SumPrefixMatchesWholeSegmentsOnly)
{
    // "unit1" must not swallow "unit1x.*": prefixes match whole
    // dot-separated segments, not raw characters.
    StatGroup s;
    s.add("unit1", 1.0);
    s.add("unit1.dram.reads", 2.0);
    s.add("unit1.dram.writes", 4.0);
    s.add("unit1x.dram.reads", 100.0);
    s.add("unit10.dram.reads", 200.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1"), 7.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1x"), 100.0);
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1.dram"), 6.0);
    // Trailing dot keeps plain string-prefix semantics (no exact-name
    // match, no segment check).
    EXPECT_DOUBLE_EQ(s.sumPrefix("unit1."), 6.0);
    // Empty prefix sums everything.
    EXPECT_DOUBLE_EQ(s.sumPrefix(""), 307.0);
}

TEST(StatGroup, MergePrefixCollisionAccumulates)
{
    // Merging under a prefix that collides with an existing name adds
    // into it rather than overwriting.
    StatGroup a;
    a.add("x", 1.0);
    StatGroup b;
    b.add("unit1.x", 10.0);
    b.merge(a, "unit1");
    EXPECT_DOUBLE_EQ(b.get("unit1.x"), 11.0);
}

TEST(StatGroup, AbsorbIsSameNameReduction)
{
    StatGroup shard0;
    shard0.add("noc.hops", 5.0);
    shard0.add("noc.flits", 2.0);
    StatGroup shard1;
    shard1.add("noc.hops", 7.0);
    shard1.add("ext.reads", 3.0);
    shard0.absorb(shard1);
    EXPECT_DOUBLE_EQ(shard0.get("noc.hops"), 12.0);
    EXPECT_DOUBLE_EQ(shard0.get("noc.flits"), 2.0);
    EXPECT_DOUBLE_EQ(shard0.get("ext.reads"), 3.0);
}

TEST(StatGroup, DumpJsonOrderedAndRoundTrippable)
{
    StatGroup s;
    s.add("b.y", 2.5);
    s.add("a.x", 1.0);
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{\n  \"a.x\": 1,\n  \"b.y\": 2.5\n}");
}

TEST(StatGroup, DumpJsonEmptyGroup)
{
    StatGroup s;
    std::ostringstream oss;
    s.dumpJson(oss);
    EXPECT_EQ(oss.str(), "{}");
}

TEST(StatGroup, DumpOrdered)
{
    StatGroup s;
    s.add("b", 2.0);
    s.add("a", 1.0);
    std::ostringstream oss;
    s.dump(oss);
    EXPECT_EQ(oss.str(), "a 1\nb 2\n");
}

TEST(BandwidthResource, NoContentionStartsImmediately)
{
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 100), 100u);
    EXPECT_EQ(r.serviceCycles(64), 4u);
}

TEST(BandwidthResource, BackToBackQueues)
{
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 0), 0u);  // busy until 4
    EXPECT_EQ(r.reserve(64, 0), 4u);  // queued
    EXPECT_EQ(r.reserve(64, 100), 100u); // idle again
    EXPECT_EQ(r.reservations(), 3u);
    EXPECT_EQ(r.totalQueueCycles(), 4u);
}

TEST(BandwidthResource, FractionalBandwidthRoundsUp)
{
    BandwidthResource r(0.5); // half a byte per cycle
    EXPECT_EQ(r.serviceCycles(3), 6u);
    EXPECT_EQ(r.serviceCycles(1), 2u);
}

TEST(BandwidthResource, OutOfOrderReservationFillsGaps)
{
    // A reservation far in the future must not delay an earlier request:
    // the gap-filling interval model is what keeps end-to-end analytic
    // evaluation from fabricating phantom queueing.
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserve(64, 10000), 10000u);
    EXPECT_EQ(r.reserve(64, 0), 0u); // earlier arrival, free gap
    EXPECT_EQ(r.reserve(64, 9998), 9998u + 6u)
        << "overlap with the future interval queues behind it";
}

TEST(BandwidthResource, GapTooSmallSkipsToNextSlot)
{
    BandwidthResource r(16.0); // 64 B = 4 cycles
    r.reserveFor(4, 0);   // [0,4)
    r.reserveFor(4, 6);   // [6,10)
    // A 4-cycle job arriving at 3 cannot fit into [4,6); lands at 10.
    EXPECT_EQ(r.reserveFor(4, 3), 10u);
    // A 2-cycle job arriving at 3 fits the [4,6) gap.
    EXPECT_EQ(r.reserveFor(2, 3), 4u);
}

TEST(BandwidthResource, ReserveForZeroTakesOneCycle)
{
    BandwidthResource r(1.0);
    EXPECT_EQ(r.reserveFor(0, 5), 5u);
    EXPECT_EQ(r.reserveFor(0, 5), 6u);
}

TEST(BandwidthResource, NextFreeTracksLatestInterval)
{
    BandwidthResource r(16.0);
    r.reserve(64, 100);
    r.reserve(64, 10);
    EXPECT_EQ(r.nextFree(), 104u);
}

TEST(LatencyBreakdown, TotalsAndAverages)
{
    LatencyBreakdown bd;
    bd.metadata = 10;
    bd.icnIntra = 20;
    bd.icnInter = 30;
    bd.dramCache = 40;
    bd.extMem = 50;
    bd.requests = 10;
    EXPECT_EQ(bd.total(), 150u);
    EXPECT_EQ(bd.icn(), 50u);
    EXPECT_DOUBLE_EQ(bd.avg(bd.extMem), 5.0);
}

} // namespace
} // namespace ndpext
