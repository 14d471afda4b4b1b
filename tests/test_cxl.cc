/** Tests for the CXL extended-memory model. */

#include <gtest/gtest.h>

#include "cxl/extended_memory.h"

namespace ndpext {
namespace {

constexpr std::uint64_t kFreq = 2000;

ExtendedMemory
makeExt(Cycles link_latency = 400)
{
    CxlParams cxl;
    cxl.linkLatencyCycles = link_latency;
    return ExtendedMemory(cxl, DramTimingParams::ddr5Extended(), kFreq);
}

TEST(ExtendedMemory, PaysLinkRoundTrip)
{
    auto ext = makeExt(400);
    const auto r = ext.access(0x1000, 64, false, 0);
    // At least two link traversals plus a DRAM access.
    EXPECT_GE(r.done, 2u * 400u);
}

TEST(ExtendedMemory, LatencyScalesWithLink)
{
    auto slow = makeExt(400);
    auto fast = makeExt(100);
    const auto rs = slow.access(0x1000, 64, false, 0);
    const auto rf = fast.access(0x1000, 64, false, 0);
    EXPECT_EQ(rs.done - rf.done, 2u * 300u);
}

TEST(ExtendedMemory, LinkBandwidthQueues)
{
    auto ext = makeExt(10);
    // Saturate the link with large transfers issued at the same time.
    const auto r1 = ext.access(0, 4096, false, 0);
    const auto r2 = ext.access(1_MiB, 4096, false, 0);
    EXPECT_GT(r2.done, r1.done);
}

TEST(ExtendedMemory, CountsAccessesAndEnergy)
{
    auto ext = makeExt();
    ext.access(0, 64, false, 0);
    ext.access(4096, 64, true, 0);
    EXPECT_EQ(ext.accesses(), 2u);
    EXPECT_GT(ext.linkEnergyNj(), 0.0);
    EXPECT_GT(ext.dramEnergyNj(), 0.0);
}

TEST(ExtendedMemory, ReportPopulatesStats)
{
    auto ext = makeExt();
    ext.access(0, 64, false, 0);
    Counters list;
    ext.counters(list, "ext");
    StatGroup stats;
    stats.addAll(list);
    EXPECT_DOUBLE_EQ(stats.get("ext.accesses"), 1.0);
    EXPECT_GT(stats.get("ext.dram.bytesRead"), 0.0);
}

/** Property: completion time is monotone in request time. */
class CxlMonotoneTest : public ::testing::TestWithParam<Cycles>
{
};

TEST_P(CxlMonotoneTest, LaterRequestsFinishLater)
{
    auto ext = makeExt();
    const Cycles t = GetParam();
    const auto r1 = ext.access(0, 64, false, t);
    const auto r2 = ext.access(1_MiB, 64, false, t + 10000);
    EXPECT_GT(r2.done, r1.done);
    EXPECT_GE(r1.done, t);
}

INSTANTIATE_TEST_SUITE_P(StartTimes, CxlMonotoneTest,
                         ::testing::Values(0u, 100u, 12345u, 1000000u));

} // namespace
} // namespace ndpext
