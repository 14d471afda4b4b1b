/**
 * Top-down CPI stack and per-stream cost attribution invariants.
 *
 * Unit level: the core's stall windows are split over the blocking
 * packet's LatencyBreakdown with largest-remainder rounding, so the six
 * integer buckets (five service classes + mshrQueue) sum EXACTLY to
 * memStallCycles(), and every stall cycle lands on the blocking packet's
 * stream id.
 *
 * System level: the machine-wide stack, per-stream stall cycles, service
 * cycles, and attributed energy must cover the machine totals — exactly
 * for integer cycle counters, and within float-association slack for
 * derived energies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "sim/packet.h"
#include "system/ndp_system.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

// --- unit level: InOrderCore stall attribution --------------------------

/** Generator replaying a fixed access list. */
class ListGen : public AccessGenerator
{
  public:
    explicit ListGen(std::vector<Access> accs) : accs_(std::move(accs)) {}

    bool
    next(Access& out) override
    {
        if (pos_ >= accs_.size()) {
            return false;
        }
        out = accs_[pos_++];
        return true;
    }

  private:
    std::vector<Access> accs_;
    std::size_t pos_ = 0;
};

/** Memory stub: fixed service latency with a fixed breakdown split. */
class FixedLatencyMem : public MemSink
{
  public:
    FixedLatencyMem(Cycles metadata, Cycles ext_mem)
        : metadata_(metadata), extMem_(ext_mem)
    {
    }

    void
    recvAtomic(Packet& pkt) override
    {
        pkt.bd.metadata += metadata_;
        pkt.bd.extMem += extMem_;
        pkt.ready += metadata_ + extMem_;
    }

  private:
    Cycles metadata_;
    Cycles extMem_;
};

Access
missAt(std::uint64_t line, StreamId sid)
{
    Access a;
    a.addr = line * kCachelineBytes;
    a.sid = sid;
    a.computeCycles = 0;
    return a;
}

TEST(CoreStall, LargestRemainderSplitSumsExactly)
{
    CoreParams params;
    params.mshrs = 1; // strict stall-on-miss: every wait is attributed
    params.l1HitCycles = 2;
    FixedLatencyMem mem(3, 7); // service 10: 30% metadata, 70% extMem
    InOrderCore core(0, params, mem);

    ListGen gen({missAt(0, 5), missAt(1, 5)});
    while (core.step(gen)) {
    }

    // Miss 1 issues at 0, frees at 10; the core moves to 2 (issue slot).
    // Miss 2 waits 10-2 = 8 cycles on a 3/7 split: floor shares 2 + 5,
    // the leftover cycle goes to the largest remainder (extMem, 6 vs 4).
    // It issues at 10, frees at 20; the drain from 12 waits another 8
    // with the same split. Total stall 16 = metadata 4 + extMem 12.
    EXPECT_EQ(core.memStallCycles(), 16u);
    EXPECT_EQ(core.stallBreakdown().metadata, 4u);
    EXPECT_EQ(core.stallBreakdown().extMem, 12u);
    EXPECT_EQ(core.stallBreakdown().mshrQueue, 0u);
    EXPECT_EQ(core.stallBreakdown().total(), core.memStallCycles());

    // Cycle identity and stream attribution.
    EXPECT_EQ(core.now(),
              core.computeCycles() + core.l1Cycles()
                  + core.memStallCycles());
    EXPECT_EQ(core.streamStallCycles(5), core.memStallCycles());
    EXPECT_EQ(core.noStreamStallCycles(), 0u);
}

TEST(CoreStall, ZeroServiceBreakdownFallsToMshrQueue)
{
    // A stub that advances time without recording any breakdown: the
    // stall has no service profile to blame, so it must land in the
    // explicit queueing bucket rather than vanish.
    class OpaqueMem : public MemSink
    {
      public:
        void
        recvAtomic(Packet& pkt) override
        {
            pkt.ready += 10;
        }
    } mem;

    CoreParams params;
    params.mshrs = 1;
    InOrderCore core(0, params, mem);

    ListGen gen({missAt(0, kNoStream), missAt(1, kNoStream)});
    while (core.step(gen)) {
    }

    EXPECT_GT(core.memStallCycles(), 0u);
    EXPECT_EQ(core.stallBreakdown().mshrQueue, core.memStallCycles());
    EXPECT_EQ(core.stallBreakdown().total(), core.memStallCycles());
    EXPECT_EQ(core.noStreamStallCycles(), core.memStallCycles());
}

TEST(CoreStall, SplitIsExactForAdversarialRatios)
{
    // Sweep awkward wait/service ratios; the rounded shares must sum to
    // the wait in every case (the invariant the report tool later
    // re-checks from JSON).
    for (Cycles meta = 0; meta <= 13; ++meta) {
        for (Cycles ext = 1; ext <= 17; ext += 3) {
            CoreParams params;
            params.mshrs = 1;
            FixedLatencyMem mem(meta, ext);
            InOrderCore core(0, params, mem);
            ListGen gen({missAt(0, 1), missAt(1, 2), missAt(2, 3)});
            while (core.step(gen)) {
            }
            EXPECT_EQ(core.stallBreakdown().total(),
                      core.memStallCycles())
                << "meta=" << meta << " ext=" << ext;
            EXPECT_EQ(core.streamStallCycles(1) + core.streamStallCycles(2)
                          + core.streamStallCycles(3)
                          + core.noStreamStallCycles(),
                      core.memStallCycles());
        }
    }
}

// --- system level: machine-wide coverage --------------------------------

SystemConfig
tinyConfig()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2;
    cfg.unitCacheBytes = 256_KiB;
    cfg.runtime.epochCycles = 200'000;
    cfg.finalize();
    return cfg;
}

RunResult
tinyRun()
{
    auto w = makeWorkload("pr");
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 16_MiB;
    p.accessesPerCore = 4000;
    p.seed = 7;
    w->prepare(p);
    NdpSystem sys(tinyConfig(), PolicyKind::NdpExt);
    return sys.run(*w);
}

/** Names of the per-stream metric roots present in `stats`. */
std::vector<std::string>
streamBases(const StatGroup& stats)
{
    std::vector<std::string> bases;
    const std::string suffix = ".stallCycles";
    for (const auto& [name, value] : stats.raw()) {
        (void)value;
        if (name.rfind("stream.", 0) == 0 && name.size() > suffix.size()
            && name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix)
                == 0) {
            bases.push_back(name.substr(0, name.size() - suffix.size()));
        }
    }
    return bases;
}

TEST(TopdownSystem, StallBucketsPartitionMemStallCycles)
{
    const RunResult res = tinyRun();
    const StatGroup& s = res.stats;
    ASSERT_TRUE(s.has("cores.memStallCycles"));
    const double bucket_sum = s.get("cores.stall.metadata")
        + s.get("cores.stall.icnIntra") + s.get("cores.stall.icnInter")
        + s.get("cores.stall.dramCache") + s.get("cores.stall.extMem")
        + s.get("cores.stall.mshrQueue");
    EXPECT_EQ(bucket_sum, s.get("cores.memStallCycles"));
    EXPECT_GT(s.get("cores.memStallCycles"), 0.0);

    // Per-core: identical invariant plus the cycle identity.
    for (int i = 0; s.has("core" + std::to_string(i) + ".cycles"); ++i) {
        const std::string c = "core" + std::to_string(i);
        const double per_core = s.get(c + ".stall.metadata")
            + s.get(c + ".stall.icnIntra") + s.get(c + ".stall.icnInter")
            + s.get(c + ".stall.dramCache") + s.get(c + ".stall.extMem")
            + s.get(c + ".stall.mshrQueue");
        EXPECT_EQ(per_core, s.get(c + ".memStallCycles")) << c;
        EXPECT_EQ(s.get(c + ".cycles"),
                  s.get(c + ".computeCycles") + s.get(c + ".l1Cycles")
                      + s.get(c + ".memStallCycles"))
            << c;
    }
}

TEST(TopdownSystem, PerStreamCyclesCoverMachineTotals)
{
    const RunResult res = tinyRun();
    const StatGroup& s = res.stats;
    const std::vector<std::string> bases = streamBases(s);
    ASSERT_GE(bases.size(), 2u); // at least one stream + "stream.none"

    double stall = 0.0;
    double metadata = 0.0;
    double icn_intra = 0.0;
    double icn_inter = 0.0;
    double dram_cache = 0.0;
    double ext_mem = 0.0;
    for (const std::string& base : bases) {
        stall += s.get(base + ".stallCycles");
        metadata += s.get(base + ".serviceCycles.metadata");
        icn_intra += s.get(base + ".serviceCycles.icnIntra");
        icn_inter += s.get(base + ".serviceCycles.icnInter");
        dram_cache += s.get(base + ".serviceCycles.dramCache");
        ext_mem += s.get(base + ".serviceCycles.extMem");
    }
    // Integer counters: exact coverage, no cycle left behind.
    EXPECT_EQ(stall, s.get("cores.memStallCycles"));
    EXPECT_EQ(metadata, static_cast<double>(res.bd.metadata));
    EXPECT_EQ(icn_intra, static_cast<double>(res.bd.icnIntra));
    EXPECT_EQ(icn_inter, static_cast<double>(res.bd.icnInter));
    EXPECT_EQ(dram_cache, static_cast<double>(res.bd.dramCache));
    EXPECT_EQ(ext_mem, static_cast<double>(res.bd.extMem));
}

TEST(TopdownSystem, PerStreamEnergyCoversMachineTotals)
{
    const RunResult res = tinyRun();
    const StatGroup& s = res.stats;

    double icn = 0.0;
    double link = 0.0;
    double ext_dram = 0.0;
    double dram_cache = 0.0;
    double sram = 0.0;
    for (const std::string& base : streamBases(s)) {
        icn += s.get(base + ".energyNj.icn");
        link += s.get(base + ".energyNj.cxlLink");
        ext_dram += s.get(base + ".energyNj.extDram");
        dram_cache += s.get(base + ".energyNj.dramCache");
        sram += s.get(base + ".energyNj.sram");
    }
    // Per-stream energies are derived from integer event counters with
    // the same coefficients the accumulators use, so the sums agree up
    // to floating-point association order.
    const double rel = 1e-9;
    EXPECT_NEAR(icn, res.energy.icnNj, rel * res.energy.icnNj);
    EXPECT_NEAR(link, res.energy.cxlLinkNj, rel * res.energy.cxlLinkNj);
    EXPECT_NEAR(ext_dram, res.energy.extDramNj,
                rel * res.energy.extDramNj);
    EXPECT_NEAR(dram_cache, res.energy.ndpDramNj,
                rel * res.energy.ndpDramNj);
    EXPECT_NEAR(sram, res.energy.sramNj, rel * res.energy.sramNj);
    EXPECT_GT(icn, 0.0);
    EXPECT_GT(ext_dram, 0.0);
}

} // namespace
} // namespace ndpext
