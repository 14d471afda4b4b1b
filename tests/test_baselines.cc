/** Tests for the adapted NUCA baseline policies and the host LLC. */

#include <gtest/gtest.h>

#include <numeric>

#include "baselines/host_llc.h"
#include "baselines/nuca_policies.h"
#include "common/rng.h"
#include "test_util.h"

namespace ndpext {
namespace {

constexpr std::uint32_t kUnits = 8;
constexpr std::uint32_t kRowsPerUnit = 32;
constexpr std::uint32_t kRowBytes = 2048;

struct Fixture
{
    MeshTopology topo{2, 1, 2, 2};
    NocModel noc{topo, NocParams{}};

    BaselineContext
    ctx() const
    {
        BaselineContext c;
        c.numUnits = kUnits;
        c.rowsPerUnit = kRowsPerUnit;
        c.rowBytes = kRowBytes;
        c.dramLatency = 40;
        return c;
    }
};

MissCurve
linearCurve(std::uint64_t useful, double misses)
{
    std::vector<std::uint64_t> caps;
    std::vector<double> m;
    for (std::uint64_t c = 2048; c <= useful * 2; c *= 2) {
        caps.push_back(c);
        m.push_back(misses
                    * (1.0
                       - std::min(1.0,
                                  static_cast<double>(c)
                                      / static_cast<double>(useful))));
    }
    MissCurve curve(caps, std::move(m));
    curve.setZeroMisses(misses);
    return curve;
}

StreamDemand
demand(StreamId sid, std::vector<UnitId> units, std::uint64_t accesses,
       std::uint64_t footprint, bool read_only)
{
    StreamDemand d;
    d.sid = sid;
    d.accUnits = std::move(units);
    d.accCounts.assign(
        d.accUnits.size(),
        accesses / std::max<std::size_t>(1, d.accUnits.size()));
    d.footprintBytes = footprint;
    d.readOnly = read_only;
    d.granuleBytes = 64;
    d.curve = linearCurve(footprint, static_cast<double>(accesses));
    return d;
}

std::uint64_t
rowsOnUnit(const std::vector<std::pair<StreamId, StreamAlloc>>& out,
           UnitId u)
{
    std::uint64_t rows = 0;
    for (const auto& [sid, a] : out) {
        (void)sid;
        rows += a.shareRows[u];
    }
    return rows;
}

TEST(PlaceCenterOfMass, PrefersAccessingUnits)
{
    Fixture f;
    std::vector<std::uint32_t> free_rows(kUnits, kRowsPerUnit);
    const auto d = demand(0, {2}, 1000, 16_KiB, true);
    const auto placed = placeCenterOfMass(d, 4, free_rows, f.noc);
    // Rows interleave over the accessor's neighborhood: the accessor
    // holds some, and everything stays within its stack (units 0..3).
    EXPECT_GT(placed[2], 0u);
    EXPECT_EQ(placed[0] + placed[1] + placed[2] + placed[3], 4u);
    EXPECT_EQ(placed[4] + placed[5] + placed[6] + placed[7], 0u);
}

TEST(PlaceCenterOfMass, OverflowsToNearestUnits)
{
    Fixture f;
    std::vector<std::uint32_t> free_rows(kUnits, 2);
    const auto d = demand(0, {0}, 1000, 1_MiB, true);
    const auto placed = placeCenterOfMass(d, 6, free_rows, f.noc);
    // All rows placed, the accessor holds some, and the same-stack units
    // (0..3) collectively hold at least as much as the remote stack.
    std::uint64_t total = 0;
    for (const auto r : placed) {
        total += r;
    }
    EXPECT_EQ(total, 6u);
    EXPECT_GT(placed[0], 0u);
    const std::uint64_t near =
        placed[0] + placed[1] + placed[2] + placed[3];
    const std::uint64_t far =
        placed[4] + placed[5] + placed[6] + placed[7];
    EXPECT_GE(near, far);
}

TEST(PlaceCenterOfMass, SpreadsAcrossUnits)
{
    // Large partitions interleave across many units instead of stacking
    // whole units (bank-level load balance; DESIGN.md 4.1).
    Fixture f;
    std::vector<std::uint32_t> free_rows(kUnits, kRowsPerUnit);
    const auto d = demand(0, {0}, 1000, 1_MiB, true);
    const auto placed =
        placeCenterOfMass(d, std::uint64_t{kUnits} * 4, free_rows, f.noc);
    std::uint32_t units_used = 0;
    for (const auto r : placed) {
        units_used += r > 0 ? 1 : 0;
    }
    EXPECT_GE(units_used, kUnits / 2);
}

TEST(StaticInterleavePolicy, ProportionalAndSingleGroup)
{
    Fixture f;
    StaticInterleaveConfigurator cfg(f.ctx(), f.noc);
    EXPECT_FALSE(cfg.reconfigures());
    const auto out = cfg.configure({
        demand(0, {0}, 1000, 192_KiB, true),
        demand(1, {1}, 1000, 64_KiB, false),
    });
    ASSERT_EQ(out.size(), 2u);
    for (const auto& [sid, a] : out) {
        (void)sid;
        EXPECT_EQ(a.numGroups, 1u);
        // Interleaved across every unit.
        for (UnitId u = 0; u < kUnits; ++u) {
            EXPECT_GT(a.shareRows[u], 0u);
        }
    }
    // 3x footprint -> ~3x rows.
    EXPECT_GT(out[0].second.totalRows(), out[1].second.totalRows());
}

TEST(JigsawPolicy, SizesByCurveAndPlacesNearAccessors)
{
    Fixture f;
    JigsawConfigurator cfg(f.ctx(), f.noc);
    EXPECT_TRUE(cfg.reconfigures());
    const auto out = cfg.configure({
        demand(0, {0, 1}, 100000, 64_KiB, true),
        demand(1, {6, 7}, 100, 64_KiB, true),
    });
    ASSERT_EQ(out.size(), 2u);
    for (const auto& [sid, a] : out) {
        EXPECT_EQ(a.numGroups, 1u) << "jigsaw never replicates";
        (void)sid;
    }
    // The hot stream's rows are on/near its accessors (stack 0).
    const auto& hot = out[0].first == 0 ? out[0].second : out[1].second;
    std::uint64_t near = hot.shareRows[0] + hot.shareRows[1]
        + hot.shareRows[2] + hot.shareRows[3];
    std::uint64_t far = hot.shareRows[4] + hot.shareRows[5]
        + hot.shareRows[6] + hot.shareRows[7];
    EXPECT_GT(near, far);
}

TEST(JigsawPolicy, CapacityRespected)
{
    Fixture f;
    JigsawConfigurator cfg(f.ctx(), f.noc);
    std::vector<StreamDemand> demands;
    std::vector<UnitId> all(kUnits);
    std::iota(all.begin(), all.end(), 0);
    for (StreamId s = 0; s < 10; ++s) {
        demands.push_back(demand(s, all, 10000, 1_MiB, true));
    }
    const auto out = cfg.configure(demands);
    for (UnitId u = 0; u < kUnits; ++u) {
        EXPECT_LE(rowsOnUnit(out, u), kRowsPerUnit);
    }
}

TEST(WhirlpoolPolicy, FootprintProportional)
{
    Fixture f;
    WhirlpoolConfigurator cfg(f.ctx(), f.noc);
    EXPECT_FALSE(cfg.reconfigures());
    const auto out = cfg.configure({
        demand(0, {0}, 10, 256_KiB, true),
        demand(1, {1}, 10, 64_KiB, true),
    });
    ASSERT_EQ(out.size(), 2u);
    EXPECT_GT(out[0].second.totalRows(), out[1].second.totalRows());
}

TEST(NexusPolicy, ReplicatesReadOnlyData)
{
    Fixture f;
    NexusConfigurator cfg(f.ctx(), f.noc);
    // Small hot read-only stream shared by units in both stacks.
    const auto out = cfg.configure({
        demand(0, {0, 1, 4, 5, 6, 7}, 100000, 8_KiB, true),
    });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(cfg.lastDegree(), 1u);
    EXPECT_GE(out[0].second.numGroups, 1u);
    // Capacity respected.
    for (UnitId u = 0; u < kUnits; ++u) {
        EXPECT_LE(out[0].second.shareRows[u], kRowsPerUnit);
    }
}

TEST(NexusPolicy, ReadWriteNeverReplicated)
{
    Fixture f;
    NexusConfigurator cfg(f.ctx(), f.noc);
    const auto out = cfg.configure({
        demand(0, {0, 1, 4, 5}, 100000, 8_KiB, false),
    });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].second.numGroups, 1u);
}

TEST(HostLlc, HitFasterThanMiss)
{
    HostLlcController llc{HostParams{}};
    Access a;
    a.addr = 0x4000;
    const auto r1 = send(llc, 0, a, 0);
    const auto r2 = send(llc, 0, a, r1.ready);
    EXPECT_LT(r2.ready - r1.ready, r1.ready);
    EXPECT_EQ(llc.llcHits(), 1u);
    EXPECT_EQ(llc.llcMisses(), 1u);
}

TEST(HostLlc, RemoteBankCostsHops)
{
    HostLlcController llc{HostParams{}};
    // Find two addresses: one whose bank is core 0, one far away.
    Access near;
    Access far;
    bool have_near = false;
    bool have_far = false;
    for (Addr addr = 0; addr < 1_MiB && !(have_near && have_far);
         addr += 64) {
        const std::uint32_t bank =
            static_cast<std::uint32_t>(mix64(addr / 64) % 64);
        if (bank == 0 && !have_near) {
            near.addr = addr;
            have_near = true;
        }
        if (bank == 63 && !have_far) {
            far.addr = addr;
            have_far = true;
        }
    }
    ASSERT_TRUE(have_near && have_far);
    // Warm both, then compare hit latencies from core 0.
    Cycles t = send(llc, 0, near, 0).ready;
    t = send(llc, 0, far, t).ready;
    const auto hn = send(llc, 0, near, t);
    const auto hf = send(llc, 0, far, hn.ready);
    EXPECT_LT(hn.ready - t, hf.ready - hn.ready);
}

TEST(HostLlc, DramEnergyAccrues)
{
    HostLlcController llc{HostParams{}};
    Access a;
    a.addr = 0x9000;
    send(llc, 3, a, 0);
    EXPECT_GT(llc.dramEnergyNj(), 0.0);
}

} // namespace
} // namespace ndpext
