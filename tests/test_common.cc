/** Unit tests for the common substrate: RNG, bit utilities, histogram. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/bitutils.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"

namespace ndpext {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += rng.nextDouble();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

std::array<std::uint64_t, 4>
stateOf(const Rng& rng)
{
    std::array<std::uint64_t, 4> s{};
    rng.state(s.data());
    return s;
}

TEST(Rng, DiscardEqualsRepeatedNext)
{
    const std::uint64_t counts[] = {0, 1, 2, 1000003};
    for (const std::uint64_t n : counts) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        Rng stepped(77);
        Rng jumped(77);
        for (std::uint64_t i = 0; i < n; ++i) {
            stepped.next();
        }
        jumped.discard(n);
        EXPECT_EQ(stateOf(jumped), stateOf(stepped));
        EXPECT_EQ(jumped.next(), stepped.next());
    }
}

TEST(Rng, DiscardComposes)
{
    // The default pr graph's draw count: 2^19 vertices * 16 edges each
    // * 19 draws per edge.
    constexpr std::uint64_t kTotal = (1ULL << 19) * 16 * 19;
    Rng whole(55);
    whole.discard(kTotal);
    const std::uint64_t firsts[] = {0, 1, kTotal / 3, kTotal - 1};
    for (const std::uint64_t a : firsts) {
        SCOPED_TRACE(::testing::Message() << "a " << a);
        Rng split(55);
        split.discard(a);
        split.discard(kTotal - a);
        EXPECT_EQ(stateOf(split), stateOf(whole));
    }
}

TEST(Zipf, StaysInDomain)
{
    ZipfSampler z(1000, 0.8, 5);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(z.next(), 1000u);
    }
}

TEST(Zipf, IsSkewedTowardSmallIds)
{
    ZipfSampler z(100000, 0.8, 5);
    std::uint64_t low = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        low += z.next() < 1000 ? 1 : 0; // top 1% of ids
    }
    // Under uniform sampling low/n would be ~1%; zipf(0.8) gives far more.
    EXPECT_GT(static_cast<double>(low) / n, 0.2);
}

TEST(Mix64, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        outputs.insert(mix64(i) % 64);
    }
    EXPECT_EQ(outputs.size(), 64u); // hits every bucket
}

TEST(BitUtils, Pow2AndLogs)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(ceilLog2(1023), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(BitUtils, DivAndAlign)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(alignUp(10, 8), 16u);
    EXPECT_EQ(alignUp(16, 8), 16u);
    EXPECT_EQ(alignDown(15, 8), 8u);
}

TEST(SizeLiterals, Work)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Histogram, TracksMoments)
{
    Histogram h(100.0, 10);
    for (int i = 0; i < 100; ++i) {
        h.add(static_cast<double>(i));
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 49.5);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 99.0);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
}

TEST(Histogram, OverflowCounted)
{
    Histogram h(10.0, 10);
    h.add(5.0);
    h.add(500.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.maxValue(), 500.0);
}

/** Empty histograms summarize to zeros instead of NaN/garbage. */
TEST(Histogram, EmptyIsZeroSafe)
{
    Histogram h(100.0, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

/** A single wide bucket cannot report quantiles outside [min, max]. */
TEST(Histogram, SingleBucketClampsToObservedRange)
{
    Histogram h(1000.0, 1);
    h.add(10.0);
    h.add(12.0);
    EXPECT_GE(h.percentile(0.5), 10.0);
    EXPECT_LE(h.percentile(0.5), 12.0);
    EXPECT_GE(h.percentile(0.99), 10.0);
    EXPECT_LE(h.percentile(0.99), 12.0);
}

/** Out-of-range and NaN quantile requests are clamped / zeroed. */
TEST(Histogram, PercentileArgumentGuards)
{
    Histogram h(100.0, 10);
    for (int i = 0; i < 10; ++i) {
        h.add(static_cast<double>(i * 10));
    }
    EXPECT_DOUBLE_EQ(h.percentile(0.0), h.minValue());
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.minValue());
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), 0.0);
}

/** NaN samples are dropped instead of poisoning the moments. */
TEST(Histogram, NanSamplesIgnored)
{
    Histogram h(100.0, 10);
    h.add(std::nan(""));
    EXPECT_EQ(h.count(), 0u);
    h.add(5.0);
    h.add(std::nan(""));
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 5.0);
}

/** Property: shuffle preserves multiset. */
TEST(Shuffle, IsPermutation)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    shuffle(v, rng);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

} // namespace
} // namespace ndpext
