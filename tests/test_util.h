/**
 * @file
 * Helpers shared by the tests: one request sent to a memory sink, a
 * stream cache rig, fresh output directories, the run cases and fault
 * mix, the full-stats comparison of two runs, and parsing of rendered
 * telemetry lines.
 */

#ifndef NDPEXT_TESTS_TEST_UTIL_H
#define NDPEXT_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ndp/stream_cache.h"
#include "runtime/static_config.h"
#include "sim/packet.h"
#include "system/ndp_system.h"
#include "telemetry/tiny_json.h"

namespace ndpext {

/** Send `acc` from `core` to `mem` at `now`, as a core's L1 miss does;
 *  returns the serviced packet (`ready` is its completion). */
inline Packet
send(MemSink& mem, CoreId core, const Access& acc, Cycles now)
{
    Packet pkt = Packet::request(acc, core, now);
    mem.recvAtomic(pkt);
    return pkt;
}

/**
 * A stream cache controller over an 8-unit machine (2x1 stacks of 2x2
 * units), with helpers to configure streams and build their accesses.
 */
struct CacheRig
{
    MeshTopology topo{2, 1, 2, 2}; // 8 units
    NocParams nocParams;
    NocModel noc{topo, nocParams};
    CxlParams cxlParams;
    ExtendedMemory ext{cxlParams, DramTimingParams::ddr5Extended(), 2000};
    StreamTable table;
    StreamCacheParams params;
    std::unique_ptr<StreamCacheController> cache;

    explicit CacheRig(bool cacheline_mode = false,
                      RemapMode mode = RemapMode::ConsistentHash)
    {
        params.cachelineMode = cacheline_mode;
        params.remapMode = mode;
        params.sampler.minCapacityBytes = 1_KiB;
        params.sampler.maxCapacityBytes = 256_KiB;
        params.sampler.numCapacities = 8;
        params.affineCapBytesPerUnit = 64_KiB;
        cache = std::make_unique<StreamCacheController>(
            params, table, noc, ext, DramTimingParams::hbm3Unit(),
            256_KiB, 2000);
    }

    StreamId
    addStream(StreamType type, std::uint64_t bytes, std::uint32_t elem,
              bool read_only)
    {
        auto cfg = StreamConfig::dense(
            "s" + std::to_string(table.numStreams()), type,
            0x100000 + table.numStreams() * 0x1000000, bytes, elem);
        cfg.readOnly = read_only;
        return table.configureStream(cfg);
    }

    void
    allocateEverything()
    {
        cache->applyConfiguration(makeStaticEqualConfig(
            table, cache->numUnits(), cache->rowsPerUnit(),
            cache->rowBytes(), params.affineCapBytesPerUnit));
    }

    Access
    accessOf(StreamId sid, ElemId elem, bool write = false)
    {
        const StreamConfig& cfg = table.stream(sid);
        Access a;
        a.sid = sid;
        a.elem = elem;
        a.addr = cfg.addrOf(elem);
        a.isWrite = write;
        return a;
    }
};

/**
 * The path prefix `name` inside a fresh, empty directory under the gtest
 * temp dir. Checkpoints written under it cannot mix with images an
 * earlier run of the suite left behind, which findLatestValidCheckpoint
 * would otherwise pick up when they outnumber the new run's epochs.
 */
inline std::string
freshPrefix(const std::string& name)
{
    std::string dir = ::testing::TempDir() + name + "XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed for " << dir;
    }
    return dir + "/" + name;
}

/** One workload/policy configuration of a system-level test. */
struct RunCase
{
    const char* name;
    const char* workload;
    PolicyKind policy;
    bool faulty;
};

/** Print a case by name, so test names do not carry its bytes. */
inline void
PrintTo(const RunCase& c, std::ostream* os)
{
    *os << c.name;
}

/**
 * Fail `unit` at cycle `at` and enable the three Bernoulli fault
 * classes, all drawn from the one injector: CXL transient errors at
 * 1e-3, CXL poison and DRAM bit faults at `rare_prob`.
 */
inline void
addFaults(SystemConfig& cfg, UnitId unit, Cycles at, double rare_prob)
{
    cfg.faults.seed = 99;
    cfg.faults.cxlTransientProb = 1e-3;
    cfg.faults.cxlPoisonProb = rare_prob;
    cfg.faults.dramBitProb = rare_prob;
    cfg.faults.unitFailures.push_back({unit, at});
}

/**
 * Expect `b` to carry exactly `a`'s stats, bit for bit. Names ending in
 * "Micros" are host wall-clock readings of the simulator itself and sit
 * outside the determinism contract (DESIGN.md section 5.2), so only
 * their presence is compared.
 */
inline void
expectSameStats(const RunResult& a, const RunResult& b)
{
    const auto isWallClock = [](const std::string& name) {
        return name.size() >= 6
            && name.compare(name.size() - 6, 6, "Micros") == 0;
    };
    for (const auto& [name, value] : a.stats.raw()) {
        EXPECT_TRUE(b.stats.has(name)) << "missing stat " << name;
        if (!isWallClock(name)) {
            EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << "stat " << name;
        }
    }
    EXPECT_EQ(a.stats.raw().size(), b.stats.raw().size());
}

/** Parse rendered JSONL text; a test failure names the bad line. */
inline std::vector<json::ValuePtr>
parsedLines(std::string_view text)
{
    std::vector<json::ValuePtr> lines;
    std::string error;
    EXPECT_TRUE(json::parseLines(std::string(text), lines, &error)) << error;
    return lines;
}

} // namespace ndpext

#endif // NDPEXT_TESTS_TEST_UTIL_H
