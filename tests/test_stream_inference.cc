/** Tests for automatic stream classification (paper future work). */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/stream_inference.h"

namespace ndpext {
namespace {

TEST(StreamInference, DenseScanIsAffine)
{
    std::vector<Addr> trace;
    for (Addr a = 0x1000; a < 0x1000 + 512 * 8; a += 8) {
        trace.push_back(a);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Affine);
    EXPECT_EQ(inferred->elemSize, 8u);
    EXPECT_EQ(inferred->strideElems, 1);
    EXPECT_GT(inferred->regularity, 0.99);
}

TEST(StreamInference, StridedScanIsAffineWithStride)
{
    std::vector<Addr> trace;
    for (Addr a = 0x2000; a < 0x2000 + 256 * 32; a += 32) {
        trace.push_back(a); // stride 32 over 4 B elements
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Affine);
    EXPECT_EQ(inferred->elemSize, 32u);
    EXPECT_EQ(inferred->strideElems, 1);
}

TEST(StreamInference, ReverseScanIsAffine)
{
    std::vector<Addr> trace;
    for (int i = 511; i >= 0; --i) {
        trace.push_back(0x8000 + static_cast<Addr>(i) * 8);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Affine);
    EXPECT_EQ(inferred->strideElems, -1);
}

TEST(StreamInference, RandomAccessIsIndirect)
{
    Rng rng(7);
    std::vector<Addr> trace;
    for (int i = 0; i < 2000; ++i) {
        trace.push_back(0x10000 + rng.nextBounded(1 << 16) * 8);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Indirect);
    EXPECT_LT(inferred->regularity, 0.5);
}

TEST(StreamInference, ZipfGatherIsIndirectWithReuse)
{
    const ZipfSampler zipf(4096, 0.8);
    Rng rows(11);
    std::vector<Addr> trace;
    for (int i = 0; i < 5000; ++i) {
        trace.push_back(0x40000 + zipf.next(rows) * 8);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Indirect);
    EXPECT_GT(inferred->reuse, 0.05); // hot head revisited
}

TEST(StreamInference, TooFewSamplesIsNullopt)
{
    StreamClassifier c;
    for (int i = 0; i < 8; ++i) {
        c.observe(0x1000 + static_cast<Addr>(i) * 8);
    }
    EXPECT_FALSE(c.infer().has_value());
}

TEST(StreamInference, RangeCoversObservations)
{
    std::vector<Addr> trace;
    for (Addr a = 0x5000; a < 0x5000 + 100 * 4; a += 4) {
        trace.push_back(a);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_LE(inferred->base, trace.front());
    EXPECT_GT(inferred->end, trace.back());
}

TEST(StreamInference, ToConfigRoundTrips)
{
    std::vector<Addr> trace;
    for (Addr a = 0x7008; a < 0x7008 + 64 * 8; a += 8) {
        trace.push_back(a);
    }
    const auto inferred = inferStream(trace);
    ASSERT_TRUE(inferred.has_value());
    const StreamConfig cfg = inferred->toConfig("auto", true);
    EXPECT_EQ(cfg.type, StreamType::Affine);
    EXPECT_TRUE(cfg.readOnly);
    for (const Addr a : trace) {
        EXPECT_TRUE(cfg.contains(a));
    }
    cfg.validate();
}

TEST(StreamInference, ResetClears)
{
    StreamClassifier c;
    for (int i = 0; i < 100; ++i) {
        c.observe(0x1000 + static_cast<Addr>(i) * 8);
    }
    ASSERT_TRUE(c.infer().has_value());
    c.reset();
    EXPECT_EQ(c.samples(), 0u);
    EXPECT_FALSE(c.infer().has_value());
}

/** Property: classification is stable across mixed thresholds. */
class InferenceThresholdTest : public ::testing::TestWithParam<double>
{
};

TEST_P(InferenceThresholdTest, ScanAlwaysAffine)
{
    std::vector<Addr> trace;
    for (Addr a = 0; a < 4096; a += 4) {
        trace.push_back(0x9000 + a);
    }
    const auto inferred = inferStream(trace, GetParam());
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->type, StreamType::Affine);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, InferenceThresholdTest,
                         ::testing::Values(0.5, 0.7, 0.9, 0.99));

} // namespace
} // namespace ndpext
