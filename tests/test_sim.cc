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

TEST(StatGroup, AddAllSumsDuplicateNames)
{
    // Per-instance counters declared under one name read as the total,
    // taken when addAll runs.
    double a = 1.5;
    const Counters list = {
        {"noc.hops", [&a] { return a; }},
        {"noc.hops", [] { return 2.0; }},
        {"ext.reads", [] { return 3.0; }},
    };
    StatGroup s;
    s.addAll(list);
    a = 100.0;
    EXPECT_DOUBLE_EQ(s.get("noc.hops"), 3.5);
    EXPECT_DOUBLE_EQ(s.get("ext.reads"), 3.0);
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
    // Values print losslessly, like dumpJson: no 6-digit rounding of
    // large counters or fractions.
    StatGroup s;
    s.add("b", 2.0);
    s.add("a", 1.0);
    s.set("c.cycles", 2120915.0);
    s.set("d.ratio", 0.1);
    std::ostringstream oss;
    s.dump(oss);
    EXPECT_EQ(oss.str(),
              "a 1\nb 2\nc.cycles 2120915\nd.ratio 0.10000000000000001\n");
}

TEST(BandwidthResource, NoContentionStartsImmediately)
{
    BandwidthResource r(16.0);
    EXPECT_EQ(r.reserveFor(r.serviceCycles(64), 100), 100u);
    EXPECT_EQ(r.serviceCycles(64), 4u);
}

TEST(BandwidthResource, BackToBackQueues)
{
    BandwidthResource r(16.0);
    const Cycles t64 = r.serviceCycles(64); // 4 cycles
    EXPECT_EQ(r.reserveFor(t64, 0), 0u);     // busy until 4
    EXPECT_EQ(r.reserveFor(t64, 0), 4u);     // queued
    EXPECT_EQ(r.reserveFor(t64, 100), 100u); // idle again
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
    const Cycles t64 = r.serviceCycles(64); // 4 cycles
    EXPECT_EQ(r.reserveFor(t64, 10000), 10000u);
    EXPECT_EQ(r.reserveFor(t64, 0), 0u); // earlier arrival, free gap
    EXPECT_EQ(r.reserveFor(t64, 9998), 9998u + 6u)
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
    r.reserveFor(r.serviceCycles(64), 100);
    r.reserveFor(r.serviceCycles(64), 10);
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
