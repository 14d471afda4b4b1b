/**
 * Checkpoint/restore coverage: byte-stream primitives and the Archive
 * pass over them, bounds on lengths read from an image, on-disk image
 * validation (every corruption class is a recoverable error, not an
 * abort), newest-valid discovery with fallback past corrupt images, and
 * the core resume invariant -- a run resumed from any epoch-barrier
 * image is bit-identical to the uninterrupted run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/checkpoint.h"
#include "system/ndp_system.h"
#include "telemetry/telemetry.h"
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

/** Every Archive field kind, in one pass that saves or loads. */
struct AllFields
{
    std::uint8_t small = 0;
    bool yes = false;
    bool no = true;
    std::uint32_t word = 0;
    std::uint64_t wide = 0;
    double real = 0.0;
    std::string text;
    std::vector<std::uint64_t> u64s;
    std::vector<std::uint32_t> u32s;
    std::vector<double> reals;
    std::vector<bool> bits;
    std::map<std::uint32_t, std::uint64_t> ordered;
    std::unordered_map<std::uint32_t, double> unordered;
    std::unordered_set<std::uint64_t> keys;

    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.section(7);
        ar.u8(small);
        ar.b(yes);
        ar.b(no);
        ar.u32(word);
        ar.u64(wide);
        ar.d(real);
        ar.str(text);
        ar.seq(u64s, [&](std::uint64_t& v) { ar.u64(v); });
        ar.seq(u32s, [&](std::uint32_t& v) { ar.u32(v); });
        ar.seq(reals, [&](double& v) { ar.d(v); });
        ar.seq(bits, [&](bool& v) { ar.b(v); });
        ar.map(ordered, [&](std::uint32_t& k, std::uint64_t& v) {
            ar.u32(k);
            ar.u64(v);
        });
        ar.map(unordered, [&](std::uint32_t& k, double& v) {
            ar.u32(k);
            ar.d(v);
        });
        ar.map(keys, [&](std::uint64_t& k) { ar.u64(k); });
    }
};

TEST(CheckpointStream, RoundTripAllPrimitives)
{
    AllFields a;
    a.small = 0xAB;
    a.yes = true;
    a.no = false;
    a.word = 0xDEADBEEFu;
    a.wide = 0x0123456789ABCDEFULL;
    a.real = -1234.5678e-9;
    a.text = "stream-based placement";
    a.u64s = {1, 2, 3};
    a.reals = {0.5, -0.25};
    a.bits = {true, false, true};
    a.ordered = {{9, 90}, {2, 20}};
    a.unordered = {{30, 3.5}, {10, 1.5}, {20, 2.5}};
    a.keys = {300, 100, 200};
    ckpt::Writer w;
    ckpt::Archive save(w);
    a.checkpoint(save);

    // The wire format: each field at its named width, containers as a
    // u64 count, maps and sets in ascending key order.
    ckpt::Reader r(w.bytes());
    r.section(7);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.d(), -1234.5678e-9);
    EXPECT_EQ(r.str(), "stream-based placement");
    EXPECT_EQ(r.u64(), 3u);
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), 3u);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.d(), 0.5);
    EXPECT_EQ(r.d(), -0.25);
    EXPECT_EQ(r.u64(), 3u);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u32(), 2u);
    EXPECT_EQ(r.u64(), 20u);
    EXPECT_EQ(r.u32(), 9u);
    EXPECT_EQ(r.u64(), 90u);
    EXPECT_EQ(r.u64(), 3u);
    for (const std::uint32_t k : {10u, 20u, 30u}) {
        EXPECT_EQ(r.u32(), k);
        EXPECT_EQ(r.d(), k / 10 + 0.5);
    }
    EXPECT_EQ(r.u64(), 3u);
    for (const std::uint64_t k : {100u, 200u, 300u}) {
        EXPECT_EQ(r.u64(), k);
    }
    EXPECT_TRUE(r.atEnd());

    // Loading through the same pass restores every field and saves
    // back to the same bytes.
    AllFields b;
    b.u32s = {7}; // stale contents are replaced, not appended to
    ckpt::Reader again(w.bytes());
    ckpt::Archive load(again);
    b.checkpoint(load);
    EXPECT_TRUE(again.atEnd());
    EXPECT_EQ(b.small, a.small);
    EXPECT_EQ(b.yes, a.yes);
    EXPECT_EQ(b.no, a.no);
    EXPECT_EQ(b.word, a.word);
    EXPECT_EQ(b.wide, a.wide);
    EXPECT_EQ(b.real, a.real);
    EXPECT_EQ(b.text, a.text);
    EXPECT_EQ(b.u64s, a.u64s);
    EXPECT_TRUE(b.u32s.empty());
    EXPECT_EQ(b.reals, a.reals);
    EXPECT_EQ(b.bits, a.bits);
    EXPECT_EQ(b.ordered, a.ordered);
    EXPECT_EQ(b.unordered, a.unordered);
    EXPECT_EQ(b.keys, a.keys);
    ckpt::Writer w2;
    ckpt::Archive resave(w2);
    b.checkpoint(resave);
    EXPECT_EQ(w2.bytes(), w.bytes());
}

TEST(CheckpointStream, StringLengthCannotWrapTheBound)
{
    // pos + n wraps to a small number for n = 2^64 - 1; the bound must
    // compare n against the bytes left instead.
    ckpt::Writer w;
    w.u8(1);
    w.u64(~std::uint64_t{0});
    ckpt::Reader r(w.bytes());
    r.u8();
    EXPECT_DEATH(r.str(), "overrun");
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

/** Byte-at-a-time CRC-32 (IEEE, reflected), one bit per step. */
std::uint32_t
referenceCrc32(const std::uint8_t* data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(CheckpointStream, Crc32MatchesBytewiseReference)
{
    const std::string check = "123456789";
    EXPECT_EQ(ckpt::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                          check.size()),
              0xCBF43926u);
    // Every length 0-64 from every start offset 0-7: the eight-byte
    // steps, their alignment and the bytewise tail.
    std::vector<std::uint8_t> buf(72);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(ckpt::crc32(buf.data() + off, len),
                      referenceCrc32(buf.data() + off, len))
                << "offset " << off << ", length " << len;
        }
    }
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
        for (const std::uint64_t v : {10, 20, 30}) {
            w.u64(v);
        }
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

TEST_F(CheckpointFileTest, FailedRenameRemovesTempFile)
{
    // A directory stands where the image goes: the write and the fsync
    // succeed, the rename fails, and the temp file must not stay behind.
    const std::string dir = path("dir.ckpt");
    std::filesystem::create_directories(dir);
    std::string error;
    EXPECT_FALSE(ckpt::saveCheckpoint(dir, 1, 1, samplePayload(), &error));
    EXPECT_NE(error.find("rename: "), std::string::npos) << error;
    EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
    std::filesystem::remove_all(dir);
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

TEST_F(CheckpointFileTest, FindLatestSkipsEpochThatOverflows)
{
    // A stray name whose epoch does not fit 64 bits matches nothing; it
    // once aborted the supervisor with an uncaught std::out_of_range.
    const std::string prefix = path("run");
    std::string error;
    ASSERT_TRUE(
        ckpt::saveCheckpoint(prefix + ".3.ckpt", 1, 3, samplePayload(),
                             &error));
    writeFile(prefix + ".99999999999999999999.ckpt", {'j', 'u', 'n', 'k'});
    std::string found;
    ckpt::CheckpointHeader h;
    ASSERT_TRUE(
        ckpt::findLatestValidCheckpoint(prefix, &found, &h, &error))
        << error;
    EXPECT_EQ(found, prefix + ".3.ckpt");
    EXPECT_EQ(h.epoch, 3u);
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

/**
 * Resume cases, one per kind of state a resume restores: the stream
 * path (pr), the cacheline-mode metadata caches (bfs under
 * static-interleave), a baseline configurator (recsys under nexus),
 * the read-only replay after a write exception (backprop), and the
 * fault injector's RNGs, poisoned and failed sets, failure cursor and
 * emergency reconfiguration, plus the unit health Algorithm 1 reads
 * after a restore (faulty pr).
 */
class CheckpointResume : public ::testing::TestWithParam<RunCase>
{
  protected:
    /** The faulty case's unit failure. */
    static constexpr Cycles kFailureAt = 100'000;

    SystemConfig
    config() const
    {
        SystemConfig cfg = tinyConfig();
        if (GetParam().faulty) {
            // Rates high enough that every fault class draws after each
            // resume point, so a lost RNG state shows.
            addFaults(cfg, 5, kFailureAt, 1e-3);
        }
        return cfg;
    }
};

TEST_P(CheckpointResume, ResumeIsBitIdentical)
{
    auto w = makeWorkload(GetParam().workload);
    w->prepare(tinyParams());
    const std::string prefix = freshPrefix("resume");

    // Golden: uninterrupted run, no checkpointing.
    NdpSystem golden(config(), GetParam().policy);
    const RunResult want = golden.run(*w);
    if (GetParam().workload == std::string("backprop")) {
        EXPECT_GE(want.writeExceptions, 1u);
    }
    if (GetParam().faulty) {
        EXPECT_EQ(want.degraded.failedUnits, 1u);
        EXPECT_EQ(want.degraded.emergencyReconfigs, 1u);
    }

    // Checkpointing is observer-only: the emitting run matches golden.
    NdpSystem emitter(config(), GetParam().policy);
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

    // Resume from the first, a middle, and the newest image. A faulty
    // run also resumes from the first image after the unit failure, with
    // reconfigurations still to come, so Algorithm 1 must run on the
    // unit health restored from the image.
    std::vector<std::uint64_t> epochs = {1, h.epoch / 2, h.epoch};
    if (GetParam().faulty) {
        const std::uint64_t after_failure =
            kFailureAt / config().runtime.epochCycles + 1;
        ASSERT_LT(after_failure, h.epoch)
            << "no reconfiguration follows the failure's first image";
        epochs.push_back(after_failure);
    }
    for (const std::uint64_t epoch : epochs) {
        NdpSystem resumed(config(), GetParam().policy);
        const std::string image =
            prefix + "." + std::to_string(epoch) + ".ckpt";
        ASSERT_TRUE(resumed.setResume(image, *w, &error)) << error;
        EXPECT_EQ(resumed.resumeEpoch(), epoch);
        const RunResult got = resumed.run(*w);
        expectIdentical(want, got);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointResume,
    ::testing::Values(
        RunCase{"pr", "pr", PolicyKind::NdpExt, false},
        RunCase{"bfs_interleave", "bfs", PolicyKind::StaticInterleave,
                false},
        RunCase{"recsys_nexus", "recsys", PolicyKind::Nexus, false},
        RunCase{"backprop", "backprop", PolicyKind::NdpExt, false},
        RunCase{"pr_faulty", "pr", PolicyKind::NdpExt, true}),
    [](const ::testing::TestParamInfo<RunCase>& info) {
        return std::string(info.param.name);
    });

/**
 * The image layout is pinned: the first image of a small fault-free pr
 * run under NDPExt has a fixed version, config hash, payload size and
 * payload CRC, without telemetry and with it attached, so a change to
 * any checkpoint pass (the telemetry section's included) or to the
 * config hash fails here rather than only when an old image is resumed.
 */
TEST(CheckpointFormat, ImageIsPinned)
{
    auto w = makeWorkload("pr");
    WorkloadParams params = tinyParams();
    params.footprintBytes = 4_MiB;
    params.accessesPerCore = 2000;
    w->prepare(params);
    const auto firstImage = [&w](Telemetry* tel, const std::string& prefix) {
        NdpSystem emitter(tinyConfig(), PolicyKind::NdpExt);
        emitter.attachTelemetry(tel);
        emitter.setCheckpointing(prefix, 1);
        emitter.run(*w);
        ckpt::CheckpointHeader h;
        std::string error;
        EXPECT_TRUE(ckpt::probeCheckpoint(prefix + ".1.ckpt", &h, &error))
            << error;
        return h;
    };
    const char* why =
        "the checkpoint image changed. If its layout changed, bump "
        "kCheckpointVersion and re-pin these values. If only simulated "
        "values moved, re-pin them in the change that re-pins "
        "bench/baselines.";

    const ckpt::CheckpointHeader plain =
        firstImage(nullptr, freshPrefix("pinned"));
    EXPECT_EQ(plain.version, 7u) << why;
    EXPECT_EQ(plain.configHash, 13499614244034063102u) << why;
    EXPECT_EQ(plain.payloadSize, 363921u) << why;
    EXPECT_EQ(plain.payloadCrc, 1928244756u) << why;

    TelemetryConfig tc;
    tc.outPrefix = freshPrefix("pinned_telemetry");
    Telemetry tel(tc);
    const ckpt::CheckpointHeader traced =
        firstImage(&tel, tc.outPrefix + ".ckpt");
    EXPECT_EQ(traced.version, 7u) << why;
    EXPECT_EQ(traced.configHash, 6533915903173500323u) << why;
    EXPECT_EQ(traced.payloadSize, 365725u) << why;
    EXPECT_EQ(traced.payloadCrc, 2287287529u) << why;
}

/**
 * An image whose CRC is valid but whose remap-table entry count is
 * 2^40 must stop at the post-CRC count check, before any container is
 * sized from it.
 */
TEST(CheckpointBounds, OversizedCountInValidImageAsserts)
{
    auto w = makeWorkload("backprop");
    w->prepare(tinyParams());
    const std::string prefix = freshPrefix("bounds");
    NdpSystem emitter(tinyConfig(), PolicyKind::NdpExt);
    emitter.setCheckpointing(prefix, 1);
    emitter.run(*w);
    const std::string image = prefix + ".1.ckpt";

    // Header: magic 8, version 4, config hash 8, epoch 8, payload size
    // 8, CRC 4; the payload follows.
    constexpr std::size_t kCrcAt = 36;
    constexpr std::size_t kPayloadAt = 40;
    std::vector<std::uint8_t> bytes = readFile(image);
    const std::uint8_t tag[4] = {0xAC, 0x0C, 0xC7, 0x5E}; // 0x5EC70CAC
    const auto at = std::search(bytes.begin() + kPayloadAt, bytes.end(),
                                std::begin(tag), std::end(tag));
    ASSERT_NE(at, bytes.end()) << "no stream-cache section";
    const std::size_t count_at =
        static_cast<std::size_t>(at - bytes.begin()) + 4;
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[count_at + i] = i == 5 ? 1 : 0; // 2^40, little-endian
    }
    const std::uint32_t crc = ckpt::crc32(bytes.data() + kPayloadAt,
                                          bytes.size() - kPayloadAt);
    for (std::size_t i = 0; i < 4; ++i) {
        bytes[kCrcAt + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    writeFile(image, bytes);

    NdpSystem resumed(tinyConfig(), PolicyKind::NdpExt);
    std::string error;
    ASSERT_TRUE(resumed.setResume(image, *w, &error)) << error;
    EXPECT_DEATH(resumed.run(*w), "checkpoint count 1099511627776 exceeds");
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
