/**
 * Checkpoint/restore coverage: byte-stream primitives, on-disk image
 * validation (every corruption class is a recoverable error, not an
 * abort), newest-valid discovery with fallback past corrupt images, and
 * the core resume invariant -- a run resumed from any epoch-barrier
 * image is bit-identical to the uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(CheckpointStream, RoundTripAllPrimitives)
{
    ckpt::Writer w;
    w.section(7);
    w.u8(0xAB);
    w.b(true);
    w.b(false);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFULL);
    w.d(-1234.5678e-9);
    w.str("stream-based placement");
    w.vecU64({1, 2, 3});
    w.vecU32({});
    w.vecD({0.5, -0.25});
    w.vecB({true, false, true});

    ckpt::Reader r(w.bytes());
    r.section(7);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.d(), -1234.5678e-9);
    EXPECT_EQ(r.str(), "stream-based placement");
    EXPECT_EQ(r.vecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(r.vecU32().empty());
    EXPECT_EQ(r.vecD(), (std::vector<double>{0.5, -0.25}));
    EXPECT_EQ(r.vecB(), (std::vector<bool>{true, false, true}));
    EXPECT_TRUE(r.atEnd());
}

TEST(CheckpointStream, DoubleBitPatternsSurvive)
{
    // NaN payload bits and signed zero must survive the round trip
    // bit-exactly (values are stored as raw IEEE-754 words).
    const double nan = std::nan("0x5ca1ab1e");
    const double negzero = -0.0;
    ckpt::Writer w;
    w.d(nan);
    w.d(negzero);
    ckpt::Reader r(w.bytes());
    const double nan2 = r.d();
    const double negzero2 = r.d();
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &nan, 8);
    std::memcpy(&b, &nan2, 8);
    EXPECT_EQ(a, b);
    std::memcpy(&a, &negzero, 8);
    std::memcpy(&b, &negzero2, 8);
    EXPECT_EQ(a, b);
}

class CheckpointFileTest : public ::testing::Test
{
  protected:
    std::string
    path(const std::string& name) const
    {
        return ::testing::TempDir() + "ckpt_"
            + ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()
            + "_" + name;
    }

    std::vector<std::uint8_t>
    samplePayload() const
    {
        ckpt::Writer w;
        w.section(1);
        w.vecU64({10, 20, 30});
        w.str("payload");
        return w.bytes();
    }
};

TEST_F(CheckpointFileTest, SaveLoadRoundTrip)
{
    const std::string file = path("a.ckpt");
    const auto payload = samplePayload();
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 42, 7, payload, &error)) << error;

    ckpt::CheckpointHeader h;
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(ckpt::loadCheckpoint(file, 42, &h, &got, &error)) << error;
    EXPECT_EQ(h.version, ckpt::kCheckpointVersion);
    EXPECT_EQ(h.configHash, 42u);
    EXPECT_EQ(h.epoch, 7u);
    EXPECT_EQ(h.payloadSize, payload.size());
    EXPECT_EQ(got, payload);

    // No stray temp file left behind.
    std::ifstream tmp(file + ".tmp");
    EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointFileTest, MissingFileIsRecoverable)
{
    std::string error;
    EXPECT_FALSE(
        ckpt::loadCheckpoint(path("nope.ckpt"), 0, nullptr, nullptr,
                             &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, TruncatedHeaderIsRecoverable)
{
    const std::string file = path("a.ckpt");
    writeFile(file, {'N', 'D', 'P', 'X'});
    std::string error;
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("truncated header"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, BadMagicIsRecoverable)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 1, 1, samplePayload(), &error));
    auto bytes = readFile(file);
    bytes[0] ^= 0xFF;
    writeFile(file, bytes);
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, UnsupportedVersionIsRecoverable)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 1, 1, samplePayload(), &error));
    auto bytes = readFile(file);
    bytes[8] = 99; // version u32 little-endian at offset 8
    writeFile(file, bytes);
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("unsupported version 99"), std::string::npos)
        << error;
}

TEST_F(CheckpointFileTest, TruncatedPayloadIsRecoverable)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 1, 1, samplePayload(), &error));
    auto bytes = readFile(file);
    bytes.pop_back();
    writeFile(file, bytes);
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("truncated payload"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, TrailingBytesAreRecoverable)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 1, 1, samplePayload(), &error));
    auto bytes = readFile(file);
    bytes.push_back(0x00);
    writeFile(file, bytes);
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, PayloadCorruptionFailsCrc)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 1, 1, samplePayload(), &error));
    auto bytes = readFile(file);
    bytes[bytes.size() - 3] ^= 0x40; // inside the payload
    writeFile(file, bytes);
    EXPECT_FALSE(ckpt::probeCheckpoint(file, nullptr, &error));
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, ConfigHashMismatchIsRecoverable)
{
    const std::string file = path("a.ckpt");
    std::string error;
    ASSERT_TRUE(ckpt::saveCheckpoint(file, 42, 1, samplePayload(), &error));
    EXPECT_FALSE(
        ckpt::loadCheckpoint(file, 43, nullptr, nullptr, &error));
    EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
    // Hash 0 means "don't check" (probe-style loads).
    EXPECT_TRUE(ckpt::loadCheckpoint(file, 0, nullptr, nullptr, &error))
        << error;
}

TEST_F(CheckpointFileTest, FindLatestPicksNewestValid)
{
    const std::string prefix = path("run");
    std::string error;
    ASSERT_TRUE(
        ckpt::saveCheckpoint(prefix + ".2.ckpt", 1, 2, samplePayload(),
                             &error));
    ASSERT_TRUE(
        ckpt::saveCheckpoint(prefix + ".10.ckpt", 1, 10, samplePayload(),
                             &error));
    std::string found;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &found, &h, &error))
        << error;
    EXPECT_EQ(found, prefix + ".10.ckpt");
    EXPECT_EQ(h.epoch, 10u);
}

TEST_F(CheckpointFileTest, FindLatestSkipsCorruptNewest)
{
    // The supervisor-fallback path: a damaged newest image must not end
    // the run; discovery falls back to the previous valid one.
    const std::string prefix = path("run");
    std::string error;
    ASSERT_TRUE(
        ckpt::saveCheckpoint(prefix + ".2.ckpt", 1, 2, samplePayload(),
                             &error));
    ASSERT_TRUE(
        ckpt::saveCheckpoint(prefix + ".10.ckpt", 1, 10, samplePayload(),
                             &error));
    auto bytes = readFile(prefix + ".10.ckpt");
    bytes.back() ^= 0xFF;
    writeFile(prefix + ".10.ckpt", bytes);

    std::string found;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &found, &h, &error))
        << error;
    EXPECT_EQ(found, prefix + ".2.ckpt");
    EXPECT_EQ(h.epoch, 2u);
}

TEST_F(CheckpointFileTest, FindLatestReportsWhyWhenAllInvalid)
{
    const std::string prefix = path("run");
    writeFile(prefix + ".5.ckpt", {'j', 'u', 'n', 'k'});
    std::string error;
    EXPECT_FALSE(
        ckpt::findLatestValidCheckpoint(prefix, nullptr, nullptr, &error));
    EXPECT_NE(error.find("no valid checkpoint"), std::string::npos)
        << error;
    EXPECT_NE(error.find("truncated header"), std::string::npos) << error;
}

// --- Resume determinism -------------------------------------------------

SystemConfig
tinyConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2; // 8 units
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 20'000; // many epoch barriers per run
    cfg.finalize();
    return cfg;
}

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    return p;
}

/** Bit-identity check over every deterministic reported quantity. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.bd.requests, b.bd.requests);
    EXPECT_EQ(a.bd.metadata, b.bd.metadata);
    EXPECT_EQ(a.bd.icnIntra, b.bd.icnIntra);
    EXPECT_EQ(a.bd.icnInter, b.bd.icnInter);
    EXPECT_EQ(a.bd.dramCache, b.bd.dramCache);
    EXPECT_EQ(a.bd.extMem, b.bd.extMem);
    EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.writeExceptions, b.writeExceptions);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    EXPECT_EQ(a.slbMisses, b.slbMisses);
    EXPECT_EQ(a.degraded.failedUnits, b.degraded.failedUnits);
    EXPECT_EQ(a.degraded.linkRetries, b.degraded.linkRetries);
    expectSameStats(a, b);
}

TEST(CheckpointResume, ResumeIsBitIdentical)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    const std::string prefix = freshPrefix("resume");

    // Golden: uninterrupted run, no checkpointing.
    NdpSystem golden(tinyConfig(), PolicyKind::NdpExt);
    const RunResult want = golden.run(*w);

    // Checkpointing is observer-only: the emitting run matches golden.
    NdpSystem emitter(tinyConfig(), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    const RunResult emitted = emitter.run(*w);
    expectIdentical(want, emitted);

    std::string newest;
    std::string error;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, &h, &error))
        << error;
    ASSERT_GE(h.epoch, 3u) << "run too short to exercise resume";

    // Resume from the first, a middle, and the newest image.
    for (const std::uint64_t epoch :
         {std::uint64_t{1}, h.epoch / 2, h.epoch}) {
        NdpSystem resumed(tinyConfig(), PolicyKind::NdpExt);
        const std::string image =
            prefix + "." + std::to_string(epoch) + ".ckpt";
        ASSERT_TRUE(resumed.setResume(image, *w, &error)) << error;
        EXPECT_EQ(resumed.resumeEpoch(), epoch);
        const RunResult got = resumed.run(*w);
        expectIdentical(want, got);
    }
}

TEST(CheckpointResume, WrongWorkloadIsRejected)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    const std::string prefix = freshPrefix("resume_wrong");

    NdpSystem emitter(tinyConfig(), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(*w);

    std::string newest;
    std::string error;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, nullptr, &error))
        << error;

    // Same workload name, different seed: the trajectory differs, so
    // the config hash must reject the image.
    auto other = makeWorkload("pr");
    WorkloadParams p = tinyParams();
    p.seed = 8;
    other->prepare(p);
    NdpSystem resumed(tinyConfig(), PolicyKind::NdpExt);
    EXPECT_FALSE(resumed.setResume(newest, *other, &error));
    EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST(CheckpointResume, DifferentPolicyIsRejected)
{
    auto w = makeWorkload("pr");
    w->prepare(tinyParams());
    const std::string prefix = freshPrefix("resume_policy");

    NdpSystem emitter(tinyConfig(), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(*w);

    std::string newest;
    std::string error;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &newest, nullptr, &error))
        << error;

    NdpSystem resumed(tinyConfig(), PolicyKind::Nexus);
    EXPECT_FALSE(resumed.setResume(newest, *w, &error));
    EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

} // namespace
} // namespace ndpext
