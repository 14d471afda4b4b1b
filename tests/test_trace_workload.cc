/** Tests for the trace-file workload front end. */

#include <gtest/gtest.h>

#include <sstream>

#include "system/ndp_system.h"
#include "workloads/trace_workload.h"

namespace ndpext {
namespace {

const char* kSmallTrace = R"(# a tiny two-stream trace
stream edges affine 0x100000 4096 4 ro
stream ranks indirect 0x200000 8192 8 rw

a 0 0 0 r 2
a 0 0 1 r
a 1 1 7 w 3
a 0 1 3 r
a 1 0 100 r
)";

TEST(TraceWorkload, ParsesStreamsAndAccesses)
{
    std::istringstream in(kSmallTrace);
    auto w = TraceWorkload::parse(in, 2);
    EXPECT_TRUE(w->prepared());
    ASSERT_EQ(w->streamConfigs().size(), 2u);
    EXPECT_EQ(w->streamConfigs()[0].name, "edges");
    EXPECT_EQ(w->streamConfigs()[0].type, StreamType::Affine);
    EXPECT_TRUE(w->streamConfigs()[0].readOnly);
    EXPECT_EQ(w->streamConfigs()[1].elemSize, 8u);
    EXPECT_FALSE(w->streamConfigs()[1].readOnly);
    EXPECT_EQ(w->accessCount(0), 3u);
    EXPECT_EQ(w->accessCount(1), 2u);
}

TEST(TraceWorkload, GeneratorReplaysInOrder)
{
    std::istringstream in(kSmallTrace);
    auto w = TraceWorkload::parse(in, 2);
    auto gen = w->makeGenerator(0);
    Access a;
    ASSERT_TRUE(gen->next(a));
    EXPECT_EQ(a.sid, 0u);
    EXPECT_EQ(a.elem, 0u);
    EXPECT_EQ(a.addr, 0x100000u);
    EXPECT_FALSE(a.isWrite);
    EXPECT_EQ(a.computeCycles, 2u);
    ASSERT_TRUE(gen->next(a));
    EXPECT_EQ(a.elem, 1u);
    EXPECT_EQ(a.addr, 0x100004u);
    ASSERT_TRUE(gen->next(a));
    EXPECT_EQ(a.sid, 1u);
    EXPECT_EQ(a.elem, 3u);
    EXPECT_FALSE(gen->next(a));
}

TEST(TraceWorkload, WritesAndComputeParsed)
{
    std::istringstream in(kSmallTrace);
    auto w = TraceWorkload::parse(in, 2);
    auto gen = w->makeGenerator(1);
    Access a;
    ASSERT_TRUE(gen->next(a));
    EXPECT_TRUE(a.isWrite);
    EXPECT_EQ(a.computeCycles, 3u);
}

TEST(TraceWorkload, RegistersIntoStreamTable)
{
    std::istringstream in(kSmallTrace);
    auto w = TraceWorkload::parse(in, 2);
    StreamTable table;
    w->registerStreams(table);
    EXPECT_EQ(table.numStreams(), 2u);
    EXPECT_EQ(table.findByAddr(0x100010), 0u);
}

TEST(TraceWorkload, RunsThroughTheFullSystem)
{
    // Build a trace with enough accesses to exercise the cache, sized
    // for a tiny 8-unit machine.
    std::ostringstream trace;
    trace << "stream data indirect 0x100000 65536 8 ro\n";
    for (int core = 0; core < 8; ++core) {
        for (int i = 0; i < 300; ++i) {
            trace << "a " << core << " 0 " << ((core * 131 + i * 7) % 8192)
                  << " r\n";
        }
    }
    std::istringstream in(trace.str());
    auto w = TraceWorkload::parse(in, 8);

    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2;
    cfg.unitCacheBytes = 256_KiB;
    cfg.finalize();
    NdpSystem sys(cfg, PolicyKind::NdpExt);
    const auto res = sys.run(*w);
    EXPECT_EQ(res.accesses, 8u * 300u);
    EXPECT_GT(res.cycles, 0u);
}

TEST(TraceWorkload, MalformedInputIsFatal)
{
    {
        std::istringstream in("bogus line\n");
        EXPECT_DEATH(TraceWorkload::parse(in, 1), "unknown record");
    }
    {
        std::istringstream in("stream s affine 0x0 64 8\n"); // missing rw
        EXPECT_DEATH(TraceWorkload::parse(in, 1), "malformed stream");
    }
    {
        std::istringstream in(
            "stream s affine 0x1000 64 8 ro\na 0 5 0 r\n");
        EXPECT_DEATH(TraceWorkload::parse(in, 1), "unknown sid");
    }
    {
        std::istringstream in(
            "stream s affine 0x1000 64 8 ro\na 9 0 0 r\n");
        EXPECT_DEATH(TraceWorkload::parse(in, 1), "core 9");
    }
    {
        std::istringstream in(
            "stream s affine 0x1000 64 8 ro\na 0 0 999 r\n");
        EXPECT_DEATH(TraceWorkload::parse(in, 1), "out of range");
    }
}

TEST(TraceWorkload, RecoverableParseReportsSourceAndLine)
{
    std::istringstream in("stream s affine 0x1000 64 8 ro\n"
                          "a 0 0 0 r\n"
                          "bogus 1 2 3\n");
    std::string error;
    auto w = TraceWorkload::parse(in, 1, "inline.trace", &error);
    EXPECT_EQ(w, nullptr);
    EXPECT_NE(error.find("inline.trace:3: "), std::string::npos) << error;
    EXPECT_NE(error.find("unknown record 'bogus'"), std::string::npos)
        << error;

    // Each bad field is a file:line diagnostic, never a wrapped value,
    // a silently dropped token or a panic.
    struct Case
    {
        const char* line;
        const char* diagnostic;
    };
    for (const Case& c :
         {Case{"a 0 0 0 r -5", "bad computeCycles '-5'"},
          Case{"a 0 0 0 r 2x", "bad computeCycles '2x'"},
          Case{"a 0 0 0 r 4294967296", "bad computeCycles '4294967296'"},
          Case{"a 0 0 0 r 2 extra", "malformed access record"},
          Case{"a -1 0 0 r", "bad core '-1'"},
          Case{"a 0 0x0 0 r", "bad sid '0x0'"},
          Case{"a 0 0 1e3 r", "bad elem '1e3'"},
          Case{"stream t affine 0x100000 16385 4 ro",
               "bad stream geometry (size=16385 elemSize=4"},
          Case{"stream t affine 0x2000 64 8 ro extra",
               "malformed stream record"},
          Case{"stream t affine -5 64 8 ro", "bad stream base '-5'"},
          Case{"stream t affine 0100 64 8 ro", "bad stream base '0100'"},
          Case{"stream t affine 0x2000 64x 8 ro", "bad stream size '64x'"},
          Case{"stream t affine 0x2000 64 4294967296 ro",
               "bad stream elemSize '4294967296'"},
          Case{"stream t affine 0x1020 64 8 ro", "stream t overlaps stream s"},
          Case{"stream t affine 0xfc0 72 8 ro", "stream t overlaps stream s"},
          Case{"stream t affine 0x1000 8 8 ro", "stream t overlaps stream s"},
          Case{"stream t affine 0xfffffffffffffff8 16 8 ro",
               "stream t runs past the end of the address space"}}) {
        std::istringstream bad(std::string(
                                   "stream s affine 0x1000 64 8 ro\n")
                               + c.line + "\n");
        EXPECT_EQ(TraceWorkload::parse(bad, 1, "inline.trace", &error),
                  nullptr)
            << c.line;
        EXPECT_NE(error.find("inline.trace:2: " + std::string(c.diagnostic)),
                  std::string::npos)
            << error;
    }
    // A decimal base and an explicit compute count still parse.
    std::istringstream ok("stream s affine 4096 64 8 ro\na 0 0 7 w 0\n");
    auto parsed = TraceWorkload::parse(ok, 1, "inline.trace", &error);
    ASSERT_NE(parsed, nullptr) << error;
    EXPECT_EQ(parsed->streamConfigs()[0].base, 4096u);
    EXPECT_EQ(parsed->coreTrace(0)[0].computeCycles, 1u); // clamped to >= 1
}

TEST(TraceWorkload, StreamIdsFitTheirType)
{
    // The stream table holds 512 streams, so the 513th is a diagnostic
    // rather than an assert when the run registers them.
    std::string text;
    for (std::size_t i = 0; i <= StreamTable::kMaxStreams; ++i) {
        text += "stream s" + std::to_string(i) + " affine "
            + std::to_string(4096 + 8 * i) + " 8 8 ro\n";
    }
    std::istringstream in(text);
    std::string error;
    EXPECT_EQ(TraceWorkload::parse(in, 1, "many.trace", &error), nullptr);
    EXPECT_NE(error.find("many.trace:513: too many streams (at most 512)"),
              std::string::npos)
        << error;
}

TEST(TraceWorkload, ParseFileDiagnosesCorruptFixture)
{
    const std::string path =
        std::string(NDPEXT_EXAMPLES_DIR) + "/data/corrupt.trace";
    std::string error;
    auto w = TraceWorkload::parseFile(path, 1, &error);
    EXPECT_EQ(w, nullptr);
    // The defect sits on line 5 of the fixture; the diagnostic must name
    // the file and that line so users can fix their own traces.
    EXPECT_NE(error.find("corrupt.trace:5: "), std::string::npos) << error;
    EXPECT_NE(error.find("unknown record"), std::string::npos) << error;
}

TEST(TraceWorkload, ParseFileLoadsSampleFixture)
{
    const std::string path =
        std::string(NDPEXT_EXAMPLES_DIR) + "/data/sample.trace";
    std::string error;
    auto w = TraceWorkload::parseFile(path, 4, &error);
    ASSERT_NE(w, nullptr) << error;
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(w->streamConfigs().size(), 2u);
}

TEST(TraceWorkload, ParseFileMissingFileIsRecoverable)
{
    std::string error;
    auto w = TraceWorkload::parseFile("/nonexistent/nope.trace", 1, &error);
    EXPECT_EQ(w, nullptr);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

} // namespace
} // namespace ndpext
