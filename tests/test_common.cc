/**
 * Unit tests for the common substrate: RNG, bit utilities, histogram and
 * the user-input grammar.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/bitutils.h"
#include "common/histogram.h"
#include "common/named_table.h"
#include "common/parse.h"
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

// --- User-input grammar (common/parse.h) -------------------------------

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(ParseCount, AcceptsDigitsUpToMax)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseCount("0", 10, &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseCount("10", 10, &v));
    EXPECT_EQ(v, 10u);
    EXPECT_TRUE(parseCount("18446744073709551615", kU64Max, &v));
    EXPECT_EQ(v, kU64Max);
    EXPECT_TRUE(parseCount("007", 10, &v));
    EXPECT_EQ(v, 7u);
}

TEST(ParseCount, RejectsOverMaxSignsSpacesAndGarbage)
{
    std::uint64_t v = 7;
    for (const char* bad :
         {"", "11", "+1", "-1", " 1", "1 ", "1x", "0x1", "1e3", "1.0",
          "1K"}) {
        EXPECT_FALSE(parseCount(bad, 10, &v)) << bad;
    }
    EXPECT_FALSE(parseCount("18446744073709551616", kU64Max, &v));
    EXPECT_FALSE(parseCount("99999999999999999999", kU64Max, &v));
    EXPECT_FALSE(parseCount("1", 0, &v));
    EXPECT_EQ(v, 7u) << "a failed parse leaves *out alone";
}

TEST(ParseCount, TypedFormBoundsByTheDestination)
{
    std::uint32_t v32 = 0;
    EXPECT_TRUE(parseCount("4294967295", &v32));
    EXPECT_EQ(v32, 4294967295u);
    EXPECT_FALSE(parseCount("4294967296", &v32));
    std::uint16_t v16 = 0;
    EXPECT_TRUE(parseCount("65535", &v16));
    EXPECT_FALSE(parseCount("65536", &v16));
}

TEST(ParseCycles, SuffixesScaleInEitherCase)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseCycles("12345", &v));
    EXPECT_EQ(v, 12345u);
    EXPECT_TRUE(parseCycles("5K", &v));
    EXPECT_EQ(v, 5'000u);
    EXPECT_TRUE(parseCycles("5k", &v));
    EXPECT_EQ(v, 5'000u);
    EXPECT_TRUE(parseCycles("2M", &v));
    EXPECT_EQ(v, 2'000'000u);
    EXPECT_TRUE(parseCycles("3g", &v));
    EXPECT_EQ(v, 3'000'000'000u);
    // The largest product that fits, and the first that does not.
    EXPECT_TRUE(parseCycles("18446744073709551K", &v));
    EXPECT_EQ(v, 18'446'744'073'709'551'000u);
    EXPECT_TRUE(parseCycles("18446744073709551615", &v));
    EXPECT_EQ(v, kU64Max);
}

TEST(ParseCycles, RejectsOverflowSignsAndGarbage)
{
    std::uint64_t v = 7;
    for (const char* bad :
         {"", "K", "-1", "+1", "-1K", " 5M", "5M ", "5X", "5KK", "5.5M",
          "18446744073709552K", "18446744073709552M", "18446744073710G",
          "18446744073709551616"}) {
        EXPECT_FALSE(parseCycles(bad, &v)) << bad;
    }
    EXPECT_EQ(v, 7u);
}

TEST(ParseAddress, HexOrDecimal)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseAddress("0x100000", &v));
    EXPECT_EQ(v, 0x100000u);
    EXPECT_TRUE(parseAddress("0XaBcD", &v));
    EXPECT_EQ(v, 0xabcdu);
    EXPECT_TRUE(parseAddress("0xffffffffffffffff", &v));
    EXPECT_EQ(v, kU64Max);
    EXPECT_TRUE(parseAddress("4096", &v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(parseAddress("0", &v));
    EXPECT_EQ(v, 0u);
    for (const char* bad :
         {"", "0x", "0x1g", "0x10000000000000000", "-0x10", "-5", "0100",
          "12abc", " 0x10"}) {
        EXPECT_FALSE(parseAddress(bad, &v)) << bad;
    }
}

TEST(ParseReal, WholeStringFiniteAndInRange)
{
    double v = 0.0;
    EXPECT_TRUE(parseReal("0.5", 0.0, 1.0, &v));
    EXPECT_DOUBLE_EQ(v, 0.5);
    EXPECT_TRUE(parseReal("1e-3", 0.0, 1.0, &v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseReal("1", 0.0, 1.0, &v)) << "bounds are inclusive";
    EXPECT_TRUE(parseReal("-2.5", -kMaxReal, kMaxReal, &v));
    EXPECT_DOUBLE_EQ(v, -2.5);
    v = 7.0;
    for (const char* bad :
         {"", "abc", " 0.5", "0.5 ", "0.5x", "1.5", "-0.1", "inf", "nan",
          "1e400"}) {
        EXPECT_FALSE(parseReal(bad, 0.0, 1.0, &v)) << bad;
    }
    EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(SplitKeyValues, SplitsAndNamesTheBadItem)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    std::string bad;
    ASSERT_TRUE(splitKeyValues("a=1,,b=x=y,", &pairs, &bad));
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"a", "1"}));
    EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"b", "x=y"}));

    pairs.clear();
    EXPECT_TRUE(splitKeyValues("", &pairs, &bad));
    EXPECT_TRUE(pairs.empty());
    for (const char* item : {"a", "=1", "a="}) {
        pairs.clear();
        EXPECT_FALSE(
            splitKeyValues(std::string("k=v,") + item, &pairs, &bad))
            << item;
        EXPECT_EQ(bad, item);
    }
}

TEST(ValueRange, ContainsAndDescribe)
{
    const ValueRange queue{.lo = 1, .hi = 4294967295.0, .integer = true};
    EXPECT_TRUE(queue.contains(1.0));
    EXPECT_TRUE(queue.contains(4294967295.0));
    EXPECT_FALSE(queue.contains(0.0));
    EXPECT_FALSE(queue.contains(4294967296.0));
    EXPECT_FALSE(queue.contains(8.5));
    EXPECT_EQ(queue.describe(), "an integer in [1, 4294967295]");

    const ValueRange amp{.hi = 1, .hiOpen = true};
    EXPECT_TRUE(amp.contains(0.0));
    EXPECT_TRUE(amp.contains(0.999));
    EXPECT_FALSE(amp.contains(1.0));
    EXPECT_FALSE(amp.contains(-1.5));
    EXPECT_EQ(amp.describe(), "a number in [0, 1)");

    EXPECT_EQ(ValueRange{.lo = 1}.describe(), "a number >= 1");
}

TEST(CheckTunables, KeyValueAndRange)
{
    const std::vector<Tunable> declared = {
        {"queue", "entries", {.lo = 1, .hi = 64, .integer = true}},
        {"frac", "fraction", {.hi = 1}},
    };
    std::string error;
    using Text = std::vector<std::pair<std::string, std::string>>;
    EXPECT_TRUE(checkTunables(declared, Text{{"queue", "8"}, {"frac", "0.5"}},
                              "row 'x'", "--list", &error))
        << error;

    EXPECT_FALSE(checkTunables(declared, Text{{"queu", "8"}}, "row 'x'",
                               "--list", &error));
    EXPECT_EQ(error,
              "row 'x' has no tunable 'queu' (did you mean 'queue'?)");
    EXPECT_FALSE(checkTunables(declared, Text{{"zzzzzz", "8"}}, "row 'x'",
                               "--list", &error));
    EXPECT_EQ(error, "row 'x' has no tunable 'zzzzzz' (see --list)");
    EXPECT_FALSE(checkTunables(declared, Text{{"queue", "abc"}}, "row 'x'",
                               "--list", &error));
    EXPECT_EQ(error, "row 'x': queue=abc must be an integer in [1, 64]");
    EXPECT_FALSE(checkTunables(declared, Text{{"queue", "0"}}, "row 'x'",
                               "--list", &error));
    EXPECT_EQ(error,
              "row 'x': queue=0 must be an integer in [1, 64]");

    using Numbers = std::vector<std::pair<std::string, double>>;
    EXPECT_TRUE(checkTunables(declared, Numbers{{"frac", 1.0}}, "row 'x'",
                              "--list", &error));
    EXPECT_FALSE(checkTunables(declared, Numbers{{"frac", -1.5}}, "row 'x'",
                               "--list", &error));
    EXPECT_EQ(error, "row 'x': frac=-1.5 must be a number in [0, 1]");
}

} // namespace
} // namespace ndpext
