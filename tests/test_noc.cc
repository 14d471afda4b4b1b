/** Tests for mesh geometry and the NoC timing/energy model. */

#include <gtest/gtest.h>

#include "noc/mesh.h"
#include "noc/noc_model.h"

namespace ndpext {
namespace {

MeshTopology
paperTopo()
{
    return MeshTopology(4, 2, 4, 4); // Table II: 4x2 stacks of 4x4 units
}

TEST(Mesh, Counts)
{
    const auto t = paperTopo();
    EXPECT_EQ(t.numStacks(), 8u);
    EXPECT_EQ(t.unitsPerStack(), 16u);
    EXPECT_EQ(t.numUnits(), 128u);
}

TEST(Mesh, CoordinateRoundTrip)
{
    const auto t = paperTopo();
    for (UnitId u = 0; u < t.numUnits(); ++u) {
        const StackId s = t.stackOf(u);
        const Coord c = t.localCoord(u);
        EXPECT_EQ(t.unitAt(s, c), u);
    }
}

TEST(Mesh, StackDistanceIsManhattan)
{
    const auto t = paperTopo();
    // Stack 0 at (0,0), stack 7 at (3,1): distance 4.
    EXPECT_EQ(t.stackDistance(0, 7), 4u);
    EXPECT_EQ(t.stackDistance(3, 3), 0u);
    EXPECT_EQ(t.stackDistance(0, 1), 1u);
}

TEST(Mesh, SameStackRouteHasNoInterHops)
{
    const auto t = paperTopo();
    const auto h = t.route(0, 5);
    EXPECT_EQ(h.inter, 0u);
    EXPECT_GT(h.intra, 0u);
}

TEST(Mesh, CrossStackRouteUsesPortals)
{
    const auto t = paperTopo();
    const UnitId a = 0;                      // stack 0
    const UnitId b = t.unitsPerStack() * 7;  // stack 7
    const auto h = t.route(a, b);
    EXPECT_EQ(h.inter, t.stackDistance(0, 7));
    EXPECT_EQ(h.intra, t.hopsToPortal(a) + t.hopsToPortal(b));
}

TEST(Mesh, SelfRouteIsZero)
{
    const auto t = paperTopo();
    const auto h = t.route(9, 9);
    EXPECT_EQ(h.intra, 0u);
    EXPECT_EQ(h.inter, 0u);
}

TEST(Mesh, CenterUnitsCloserToPortal)
{
    const auto t = paperTopo();
    // Unit at local (1,1) is the portal; corner (3,3) is farthest.
    const UnitId center = t.unitAt(0, Coord{1, 1});
    const UnitId corner = t.unitAt(0, Coord{3, 3});
    EXPECT_EQ(t.hopsToPortal(center), 0u);
    EXPECT_EQ(t.hopsToPortal(corner), 4u);
}

TEST(NocModel, ZeroLoadLatencyMatchesHops)
{
    const auto t = paperTopo();
    NocParams p;
    NocModel noc(t, p);
    const UnitId a = 0;
    const UnitId b = 3; // same stack, 3 hops
    EXPECT_EQ(noc.pureLatency(a, b), 3 * p.intraHopCycles);
    EXPECT_EQ(noc.pureLatency(a, a), 0u);
}

TEST(NocModel, TransferMatchesZeroLoadWhenIdle)
{
    const auto t = paperTopo();
    NocParams p;
    NocModel noc(t, p);
    const auto r = noc.transfer(0, 3, 64, 1000);
    EXPECT_EQ(r.done, 1000 + noc.pureLatency(0, 3));
}

TEST(NocModel, InterStackTransferQueuesUnderLoad)
{
    const auto t = paperTopo();
    NocParams p;
    NocModel noc(t, p);
    const UnitId a = t.unitAt(0, Coord{1, 1}); // at portal
    const UnitId b = t.unitAt(1, Coord{1, 1});
    const auto r1 = noc.transfer(a, b, 4096, 0);
    const auto r2 = noc.transfer(a, b, 4096, 0);
    EXPECT_GT(r2.done, r1.done); // shared egress link serializes
}

TEST(NocModel, FartherStacksTakeLonger)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    const UnitId a = 0;
    const UnitId near = t.unitsPerStack() * 1;
    const UnitId far = t.unitsPerStack() * 3;
    EXPECT_LT(noc.pureLatency(a, near), noc.pureLatency(a, far));
}

TEST(NocModel, AttenuationDecreasesWithDistance)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    const double local = noc.attenuation(0, 0, 40);
    const double remote = noc.attenuation(0, 127, 40);
    EXPECT_DOUBLE_EQ(local, 1.0);
    EXPECT_LT(remote, local);
    EXPECT_GT(remote, 0.0);
}

TEST(NocModel, EnergyGrowsWithHopsAndBytes)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    noc.transfer(0, 1, 64, 0);
    const double e1 = noc.energyNj();
    noc.transfer(0, 127, 64, 0);
    const double e2 = noc.energyNj() - e1;
    EXPECT_GT(e2, e1); // cross-stack hop energy dominates
}

TEST(NocModel, CxlPortalTransfers)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    // From a unit in the CXL stack: only intra hops.
    const auto r1 = noc.transferToCxl(0, 64, 0);
    EXPECT_EQ(r1.interHops, 0u);
    // From a remote stack: inter hops too.
    const auto r2 = noc.transferToCxl(t.unitsPerStack() * 7, 64, 0);
    EXPECT_GT(r2.interHops, 0u);
    const auto r3 = noc.transferFromCxl(t.unitsPerStack() * 7, 64, 0);
    EXPECT_GT(r3.interHops, 0u);
}

TEST(NocModel, EnergyMatchesHopArithmetic)
{
    const auto t = paperTopo();
    NocParams p;
    NocModel noc(t, p);
    // 3 intra hops, 0 inter: energy = bytes*8 * intraPj * 3.
    const std::uint32_t bytes = 128;
    noc.transfer(0, 3, bytes, 0);
    const double expect =
        bytes * 8.0 * p.intraPjPerBit * 1e-3 * 3.0;
    EXPECT_NEAR(noc.energyNj(), expect, 1e-9);
}

TEST(NocModel, CxlPortalSerializesUnderBurst)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    // Many simultaneous big transfers from a remote stack toward the CXL
    // portal share the inter-stack links: completions must spread out.
    const UnitId src = t.unitsPerStack() * 7; // farthest stack
    Cycles first = 0;
    Cycles last = 0;
    for (int i = 0; i < 16; ++i) {
        const auto r = noc.transferToCxl(src, 4096, 0);
        if (i == 0) {
            first = r.done;
        }
        last = r.done;
    }
    EXPECT_GT(last, first);
}

TEST(NocModel, ReportIncludesQueueCounters)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    noc.transfer(0, 127, 64, 0);
    Counters list;
    noc.counters(list, "noc");
    StatGroup stats;
    stats.addAll(list);
    EXPECT_DOUBLE_EQ(stats.get("noc.transfers"), 1.0);
    EXPECT_TRUE(stats.has("noc.linkReservations"));
}

/** Property: latency symmetric in zero-load conditions. */
class NocSymmetryTest
    : public ::testing::TestWithParam<std::pair<UnitId, UnitId>>
{
};

TEST_P(NocSymmetryTest, PureLatencySymmetric)
{
    const auto t = paperTopo();
    NocModel noc(t, NocParams{});
    const auto [a, b] = GetParam();
    EXPECT_EQ(noc.pureLatency(a, b), noc.pureLatency(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, NocSymmetryTest,
    ::testing::Values(std::make_pair(0u, 5u), std::make_pair(0u, 17u),
                      std::make_pair(3u, 127u), std::make_pair(64u, 80u),
                      std::make_pair(15u, 16u), std::make_pair(40u, 90u)));

} // namespace
} // namespace ndpext
