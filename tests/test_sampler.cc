/** Tests for miss curves and the set-based samplers. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sampler/miss_curve.h"
#include "sampler/sampler.h"

namespace ndpext {
namespace {

SamplerParams
smallParams()
{
    SamplerParams p;
    p.kSets = 32;
    p.numCapacities = 16;
    p.minCapacityBytes = 1_KiB;
    p.maxCapacityBytes = 1_MiB;
    return p;
}

TEST(MissCurve, InterpolationAndClamping)
{
    MissCurve c({1024, 4096, 16384}, {100.0, 50.0, 10.0});
    EXPECT_DOUBLE_EQ(c.missesAt(512), 100.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 100.0);
    EXPECT_DOUBLE_EQ(c.missesAt(16384), 10.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1_MiB), 10.0);
    const double mid = c.missesAt(2048);
    EXPECT_LT(mid, 100.0);
    EXPECT_GT(mid, 50.0);
}

TEST(MissCurve, EnforcesMonotonicity)
{
    MissCurve c({1024, 4096}, {50.0, 80.0}); // noisy increase clamped
    EXPECT_DOUBLE_EQ(c.missesAt(4096), 50.0);
}

TEST(MissCurve, EmptyCurveIsSafe)
{
    MissCurve c;
    EXPECT_TRUE(c.empty());
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 0.0);
}

TEST(Sampler, GeometricCapacities)
{
    MissCurveSampler s(smallParams());
    const auto& caps = s.capacities();
    ASSERT_EQ(caps.size(), 16u);
    EXPECT_EQ(caps.front(), 1_KiB);
    EXPECT_EQ(caps.back(), 1_MiB);
    for (std::size_t i = 1; i < caps.size(); ++i) {
        EXPECT_GT(caps[i], caps[i - 1]);
    }
}

TEST(Sampler, SmallWorkingSetHitsAtLargeCapacity)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    // Working set of 64 granules x 64 B = 4 kB, looped many times.
    for (int rep = 0; rep < 200; ++rep) {
        for (std::uint64_t g = 0; g < 64; ++g) {
            s.observe(g);
        }
    }
    const MissCurve c = s.curve(12800);
    // At 1 MiB everything fits: near-zero miss rate.
    EXPECT_LT(c.missesAt(1_MiB) / 12800.0, 0.1);
    // At 1 KiB the set does not fit: high miss rate.
    EXPECT_GT(c.missesAt(1_KiB) / 12800.0, 0.5);
}

TEST(Sampler, RandomStreamKeepsMissingEverywhere)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    Rng rng(5);
    // Working set far beyond max capacity, uniformly random.
    for (int i = 0; i < 100000; ++i) {
        s.observe(rng.nextBounded(1u << 22));
    }
    const MissCurve c = s.curve(100000);
    EXPECT_GT(c.missesAt(1_MiB) / 100000.0, 0.7);
}

TEST(Sampler, CurveIsMonotoneNonIncreasing)
{
    MissCurveSampler s(smallParams());
    s.configure(0, 64);
    Rng rng(9);
    const ZipfSampler zipf(1 << 16, 0.8);
    Rng rows(11);
    for (int i = 0; i < 50000; ++i) {
        s.observe(zipf.next(rows));
    }
    const MissCurve c = s.curve(50000);
    for (std::size_t i = 1; i < c.numPoints(); ++i) {
        EXPECT_LE(c.misses()[i], c.misses()[i - 1] + 1e-9);
    }
}

TEST(Sampler, DeassignClearsState)
{
    MissCurveSampler s(smallParams());
    s.configure(3, 64);
    s.observe(1);
    EXPECT_TRUE(s.assigned());
    s.configure(kNoStream, 0);
    EXPECT_FALSE(s.assigned());
    EXPECT_EQ(s.accesses(), 0u);
}

TEST(SamplerBank, TracksBitvectorAndCounts)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}, {5, 8}});
    bank.observe(2, 10);
    bank.observe(2, 11);
    bank.observe(9, 1); // not sampled, still counted
    EXPECT_TRUE(bank.accessed(2));
    EXPECT_TRUE(bank.accessed(9));
    EXPECT_FALSE(bank.accessed(3));
    EXPECT_EQ(bank.accessCount(2), 2u);
    EXPECT_EQ(bank.accessCount(9), 1u);
    ASSERT_NE(bank.samplerFor(2), nullptr);
    EXPECT_EQ(bank.samplerFor(2)->accesses(), 2u);
    EXPECT_EQ(bank.samplerFor(9), nullptr);
}

TEST(SamplerBank, NewEpochClearsCountersNotAssignments)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}});
    bank.observe(2, 10);
    bank.newEpoch();
    EXPECT_FALSE(bank.accessed(2));
    EXPECT_EQ(bank.accessCount(2), 0u);
    ASSERT_NE(bank.samplerFor(2), nullptr); // still assigned
}

TEST(MissCurve, ZeroMissesEnablesFirstSegmentSlope)
{
    MissCurve c({1024, 4096}, {100.0, 100.0}); // flat measured curve
    EXPECT_DOUBLE_EQ(c.bestSegment(0).slope, 0.0);
    c.setZeroMisses(1000.0);
    EXPECT_GT(c.bestSegment(0).slope, 0.0);
    EXPECT_DOUBLE_EQ(c.missesAt(0), 1000.0);
    EXPECT_DOUBLE_EQ(c.missesAt(1024), 100.0);
}

TEST(MissCurve, ZeroMissesClampedToFirstPoint)
{
    MissCurve c({1024}, {100.0});
    c.setZeroMisses(5.0); // below the first point: clamped up
    EXPECT_DOUBLE_EQ(c.zeroMisses(), 100.0);
}

TEST(MissCurve, BestSegmentSeesPastFlatRegions)
{
    // Flat from 1k to 4k, cliff at 16k: growing to the next point gains
    // nothing, but the lookahead must find the 16k target.
    MissCurve c({1024, 4096, 16384}, {100.0, 100.0, 10.0});
    EXPECT_DOUBLE_EQ(c.missesAt(1024), c.missesAt(4096));
    const auto seg = c.bestSegment(1024);
    EXPECT_EQ(seg.target, 16384u);
    EXPECT_GT(seg.slope, 0.0);
}

TEST(MissCurve, BestSegmentAtEndIsEmpty)
{
    MissCurve c({1024, 4096}, {100.0, 50.0});
    const auto seg = c.bestSegment(4096);
    EXPECT_EQ(seg.target, 0u);
    EXPECT_DOUBLE_EQ(seg.slope, 0.0);
}

TEST(MissCurve, PointwiseMinBlends)
{
    MissCurve a({1024, 4096}, {100.0, 80.0});
    MissCurve b({1024, 4096}, {90.0, 95.0});
    a.setZeroMisses(120.0);
    b.setZeroMisses(110.0);
    const auto m = MissCurve::pointwiseMin(a, b);
    EXPECT_DOUBLE_EQ(m.missesAt(1024), 90.0);
    EXPECT_DOUBLE_EQ(m.missesAt(4096), 80.0);
    EXPECT_DOUBLE_EQ(m.zeroMisses(), 120.0);
}

TEST(SamplerBank, ReassignmentKeepsMatchingStreams)
{
    SamplerBank bank(4, smallParams());
    bank.assign({{2, 64}, {5, 8}});
    bank.observe(2, 10);
    bank.observe(2, 10);
    // Stream 2 stays assigned: its shadow-set state must persist so
    // reuse accumulates across epochs.
    bank.assign({{2, 64}, {7, 8}});
    ASSERT_NE(bank.samplerFor(2), nullptr);
    EXPECT_EQ(bank.samplerFor(2)->accesses(), 2u);
    // Stream 5 was dropped, 7 added fresh.
    EXPECT_EQ(bank.samplerFor(5), nullptr);
    ASSERT_NE(bank.samplerFor(7), nullptr);
    EXPECT_EQ(bank.samplerFor(7)->accesses(), 0u);
}

/** Property: different k values produce consistent curve shapes. */
class SamplerKTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SamplerKTest, WorkingSetKneeDetected)
{
    SamplerParams p = smallParams();
    p.kSets = GetParam();
    MissCurveSampler s(p);
    s.configure(0, 64);
    // 256-granule working set = 16 kB.
    for (int rep = 0; rep < 100; ++rep) {
        for (std::uint64_t g = 0; g < 256; ++g) {
            s.observe(g);
        }
    }
    const MissCurve c = s.curve(25600);
    // Well above the knee: low misses; well below: high misses.
    EXPECT_LT(c.missesAt(256_KiB), c.missesAt(2_KiB));
}

INSTANTIATE_TEST_SUITE_P(KSets, SamplerKTest,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

} // namespace
} // namespace ndpext
