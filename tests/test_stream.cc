/** Tests for stream configs, affine reordering, and the stream table. */

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "stream/stream_config.h"
#include "stream/stream_table.h"

namespace ndpext {
namespace {

TEST(StreamConfig, DenseBasics)
{
    const auto cfg =
        StreamConfig::dense("s", StreamType::Indirect, 0x1000, 4096, 8);
    EXPECT_EQ(cfg.numElems(), 512u);
    EXPECT_EQ(cfg.end(), 0x2000u);
    EXPECT_TRUE(cfg.contains(0x1000));
    EXPECT_TRUE(cfg.contains(0x1fff));
    EXPECT_FALSE(cfg.contains(0x2000));
    EXPECT_FALSE(cfg.isReordered());
}

TEST(StreamConfig, DenseElemIdRoundTrip)
{
    const auto cfg =
        StreamConfig::dense("s", StreamType::Affine, 0x1000, 4096, 8);
    for (ElemId e = 0; e < cfg.numElems(); ++e) {
        const Addr a = cfg.addrOf(e);
        EXPECT_EQ(cfg.elemIdOf(a), e);
    }
}

TEST(StreamConfig, ColMajorMatrixIsReordered)
{
    const auto cfg =
        StreamConfig::matrix2d("m", 0x1000, 8, 16, 4, /*col_major=*/true);
    EXPECT_TRUE(cfg.isReordered());
    // Element 0 in access order = (row 0, col 0); element 1 = (row 1,
    // col 0) -> one full row stride away in memory.
    EXPECT_EQ(cfg.addrOf(0), 0x1000u);
    EXPECT_EQ(cfg.addrOf(1), 0x1000u + 16 * 4);
}

TEST(StreamConfig, RowMajorMatrixIsNot)
{
    const auto cfg =
        StreamConfig::matrix2d("m", 0x1000, 8, 16, 4, /*col_major=*/false);
    EXPECT_FALSE(cfg.isReordered());
    EXPECT_EQ(cfg.addrOf(1), 0x1000u + 4);
}

TEST(StreamConfig, ReorderingGroupsColumnNeighbors)
{
    // Column-major access order: consecutive elem ids walk down a column,
    // so a 1 kB cache block of ids covers one column chunk -- the
    // spatial-locality improvement Section IV-A describes.
    const auto cfg =
        StreamConfig::matrix2d("m", 0, 64, 64, 4, /*col_major=*/true);
    // ids 0..63 are all of column 0.
    for (ElemId e = 0; e < 64; ++e) {
        const Addr a = cfg.addrOf(e);
        EXPECT_EQ((a / 4) % 64, 0u) << "elem " << e << " not in column 0";
    }
}

/** Property: elemIdOf(addrOf(e)) == e for diverse shapes and orders. */
struct ShapeCase
{
    std::uint64_t rows;
    std::uint64_t cols;
    std::uint32_t elem;
    bool colMajor;
};

/**
 * Name a shape by its fields, e.g. 16x64_8B_col. gtest's default dumps
 * the struct's bytes, padding included, so the parameterised test names
 * would change from one build to the next.
 */
void
PrintTo(const ShapeCase& c, std::ostream* os)
{
    *os << c.rows << "x" << c.cols << "_" << c.elem << "B_"
        << (c.colMajor ? "col" : "row");
}

class StreamBijectionTest : public ::testing::TestWithParam<ShapeCase>
{
};

TEST_P(StreamBijectionTest, RoundTripsAndCoversUniquely)
{
    const auto p = GetParam();
    const auto cfg = StreamConfig::matrix2d("m", 0x10000, p.rows, p.cols,
                                            p.elem, p.colMajor);
    std::set<Addr> seen;
    for (ElemId e = 0; e < cfg.numElems(); ++e) {
        const Addr a = cfg.addrOf(e);
        EXPECT_TRUE(cfg.contains(a));
        EXPECT_EQ(cfg.elemIdOf(a), e);
        EXPECT_TRUE(seen.insert(a).second) << "duplicate address";
    }
    EXPECT_EQ(seen.size(), cfg.numElems());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StreamBijectionTest,
    ::testing::Values(ShapeCase{4, 4, 4, false}, ShapeCase{4, 4, 4, true},
                      ShapeCase{16, 64, 8, true},
                      ShapeCase{64, 16, 8, true},
                      ShapeCase{1, 128, 4, false},
                      ShapeCase{128, 1, 4, true},
                      ShapeCase{31, 17, 8, true}));

TEST(StreamConfig, ThreeDimReorder)
{
    StreamConfig cfg;
    cfg.name = "t3";
    cfg.type = StreamType::Affine;
    cfg.base = 0;
    cfg.elemSize = 4;
    cfg.dims = 3;
    cfg.length = {4, 8, 2};
    cfg.stride = {4, 16, 128};
    cfg.size = 4 * 8 * 2 * 4;
    cfg.order = {2, 0, 1}; // iterate dim2 innermost, then dim0, then dim1
    cfg.validate();
    std::set<Addr> seen;
    for (ElemId e = 0; e < cfg.numElems(); ++e) {
        const Addr a = cfg.addrOf(e);
        EXPECT_EQ(cfg.elemIdOf(a), e);
        EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_EQ(seen.size(), cfg.numElems());
}

TEST(StreamConfig, MalformedConfigsDie)
{
    StreamConfig cfg;
    cfg.name = "bad";
    cfg.type = StreamType::Affine;
    cfg.base = 0;
    cfg.elemSize = 8;
    cfg.size = 0; // zero size
    EXPECT_DEATH(cfg.validate(), "assertion failed");

    cfg.size = 100; // not a multiple of elemSize
    EXPECT_DEATH(cfg.validate(), "multiple of elemSize");

    cfg.size = 4 * 8 * 8;
    cfg.dims = 2;
    cfg.elemSize = 8;
    cfg.stride = {8, 48, 0}; // non-nested (should be 8*4=32)
    cfg.length = {4, 8, 0};
    EXPECT_DEATH(cfg.validate(), "non-nested stride");

    cfg.stride = {8, 32, 0};
    cfg.order = {0, 0, 2}; // not a permutation
    EXPECT_DEATH(cfg.validate(), "not a permutation");
}

TEST(StreamConfig, AddrOutOfRangeDies)
{
    const auto cfg =
        StreamConfig::dense("s", StreamType::Affine, 0x1000, 64, 8);
    EXPECT_DEATH(cfg.elemIdOf(0x2000), "out of range");
    EXPECT_DEATH(cfg.addrOf(100), "out of range");
}

TEST(StreamTable, AssignsSequentialSids)
{
    StreamTable t;
    const auto a = t.configureStream(
        StreamConfig::dense("a", StreamType::Affine, 0x1000, 4096, 8));
    const auto b = t.configureStream(
        StreamConfig::dense("b", StreamType::Affine, 0x3000, 4096, 8));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(t.numStreams(), 2u);
}

TEST(StreamTable, FindByAddr)
{
    StreamTable t;
    t.configureStream(
        StreamConfig::dense("a", StreamType::Affine, 0x1000, 4096, 8));
    t.configureStream(
        StreamConfig::dense("b", StreamType::Affine, 0x3000, 4096, 8));
    EXPECT_EQ(t.findByAddr(0x1000), 0u);
    EXPECT_EQ(t.findByAddr(0x1fff), 0u);
    EXPECT_EQ(t.findByAddr(0x3000), 1u);
    EXPECT_EQ(t.findByAddr(0x2000), kNoStream); // gap
    EXPECT_EQ(t.findByAddr(0x0), kNoStream);
    EXPECT_EQ(t.findByAddr(0x8000), kNoStream);
}

TEST(StreamTable, OverlapIsFatal)
{
    StreamTable t;
    t.configureStream(
        StreamConfig::dense("a", StreamType::Affine, 0x1000, 4096, 8));
    EXPECT_DEATH(t.configureStream(StreamConfig::dense(
                     "b", StreamType::Affine, 0x1800, 4096, 8)),
                 "overlaps");
}

TEST(StreamTable, MarkWrittenClearsReadOnly)
{
    StreamTable t;
    auto cfg = StreamConfig::dense("a", StreamType::Affine, 0x1000, 4096,
                                   8);
    cfg.readOnly = true;
    const auto sid = t.configureStream(cfg);
    EXPECT_TRUE(t.stream(sid).readOnly);
    t.markWritten(sid);
    EXPECT_FALSE(t.stream(sid).readOnly);
}

} // namespace
} // namespace ndpext
