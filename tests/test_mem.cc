/** Tests for the DRAM timing/energy model. */

#include <gtest/gtest.h>

#include <ostream>

#include "mem/dram.h"

namespace ndpext {

/**
 * Print a preset by name. gtest's default dumps the raw bytes, which
 * include the address of the name's buffer, so the parameterised test
 * names would change from one run to the next.
 */
void PrintTo(const DramTimingParams& p, std::ostream* os)
{
    *os << p.name;
}

namespace {

constexpr std::uint64_t kFreq = 2000; // 2 GHz core clock

TEST(DramPresets, TableIIValues)
{
    const auto hbm = DramTimingParams::hbm3Unit();
    EXPECT_EQ(hbm.tRcd, 24u);
    EXPECT_EQ(hbm.tCas, 24u);
    EXPECT_EQ(hbm.tRp, 24u);
    EXPECT_DOUBLE_EQ(hbm.clockMhz, 1600.0);
    EXPECT_DOUBLE_EQ(hbm.rdWrPjPerBit, 1.7);
    EXPECT_DOUBLE_EQ(hbm.actPreNj, 0.6);

    const auto hmc = DramTimingParams::hmc2Unit();
    EXPECT_EQ(hmc.tRcd, 14u);
    EXPECT_DOUBLE_EQ(hmc.clockMhz, 1250.0);

    const auto ddr = DramTimingParams::ddr5Extended();
    EXPECT_EQ(ddr.tRcd, 40u);
    // Table II: 4 channels x 2 ranks x 16 banks, timed as 128 flat banks.
    EXPECT_EQ(ddr.channels, 4u);
    EXPECT_EQ(ddr.ranks, 2u);
    EXPECT_EQ(ddr.banks, 16u);
    EXPECT_EQ(ddr.totalBanks(), 4u * 2 * 16);
    EXPECT_DOUBLE_EQ(ddr.rdWrPjPerBit, 3.2);
    EXPECT_DOUBLE_EQ(ddr.actPreNj, 3.3);
}

TEST(DramDevice, RowHitFasterThanMiss)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    EXPECT_LT(d.rowHitLatency(), d.rowClosedLatency());
    EXPECT_LT(d.rowClosedLatency(), d.rowMissLatency());
}

TEST(DramDevice, FirstAccessOpensRow)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    const auto r = d.accessRow(0, 5, 64, false, 1000);
    EXPECT_FALSE(r.rowHit);
    EXPECT_EQ(r.done, 1000 + d.rowClosedLatency());
}

TEST(DramDevice, SecondAccessSameRowHits)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 0);
    const auto r2 = d.accessRow(0, 5, 64, false, r1.done);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_EQ(r2.done - r1.done, d.rowHitLatency());
}

TEST(DramDevice, RowConflictPaysPrecharge)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 0);
    const auto r2 = d.accessRow(0, 9, 64, false, r1.done);
    EXPECT_FALSE(r2.rowHit);
    EXPECT_EQ(r2.done - r1.done, d.rowMissLatency());
}

TEST(DramDevice, BanksOperateIndependently)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 0);
    const auto r2 = d.accessRow(1, 5, 64, false, 0);
    // Same start time, different banks: no serialization beyond timing.
    EXPECT_EQ(r1.done, r2.done);
}

TEST(DramDevice, SameBankSerializes)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    const auto r1 = d.accessRow(0, 5, 64, false, 0);
    const auto r2 = d.accessRow(0, 5, 64, false, 0); // arrives at same time
    EXPECT_GT(r2.done, r1.done);
}

TEST(DramDevice, AddressMapInterleavesBanks)
{
    const auto params = DramTimingParams::hbm3Unit();
    DramDevice d(params, kFreq);
    // Consecutive rows land on different banks -> parallel at same time.
    const auto r1 = d.access(0, 64, false, 0);
    const auto r2 = d.access(params.rowBytes, 64, false, 0);
    EXPECT_EQ(r1.done, r2.done);
}

TEST(DramDevice, EnergyAccounting)
{
    const auto params = DramTimingParams::hbm3Unit();
    DramDevice d(params, kFreq);
    d.accessRow(0, 5, 64, false, 0); // 1 activation + 64 B read
    const double expect =
        64.0 * 8.0 * params.rdWrPjPerBit * 1e-3 + params.actPreNj;
    EXPECT_NEAR(d.dynamicEnergyNj(), expect, 1e-9);
}

TEST(DramDevice, BurstScalesWithSize)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    EXPECT_LT(d.burstCycles(64), d.burstCycles(1024));
}

TEST(DramDevice, ReportPopulatesStats)
{
    DramDevice d(DramTimingParams::hbm3Unit(), kFreq);
    d.accessRow(0, 5, 64, true, 0);
    d.accessRow(0, 5, 64, false, 1000);
    Counters list;
    d.counters(list, "dram");
    StatGroup stats;
    stats.addAll(list);
    EXPECT_DOUBLE_EQ(stats.get("dram.rowHits"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("dram.rowMisses"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("dram.bytesWritten"), 64.0);
    EXPECT_DOUBLE_EQ(stats.get("dram.bytesRead"), 64.0);
}

/** Property sweep: timing conversion is sane across technologies. */
class DramTechTest : public ::testing::TestWithParam<DramTimingParams>
{
};

TEST_P(DramTechTest, LatencyOrderingHolds)
{
    DramDevice d(GetParam(), kFreq);
    EXPECT_GT(d.rowHitLatency(), 0u);
    EXPECT_LT(d.rowHitLatency(), d.rowMissLatency());
    // Hit latency is ~tCAS at the core clock plus one burst.
    const double dram_cycle_ns = 1000.0 / GetParam().clockMhz;
    const double expect_ns = GetParam().tCas * dram_cycle_ns;
    const double got_ns =
        static_cast<double>(d.rowHitLatency() - d.burstCycles(64)) / 2.0;
    EXPECT_NEAR(got_ns, expect_ns, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechs, DramTechTest,
    ::testing::Values(DramTimingParams::hbm3Unit(),
                      DramTimingParams::hmc2Unit(),
                      DramTimingParams::ddr5Extended()),
    [](const ::testing::TestParamInfo<DramTimingParams>& info) {
        std::string name = info.param.name;
        for (auto& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace ndpext
