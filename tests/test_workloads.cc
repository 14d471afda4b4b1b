/** Tests for the workload generators (all 13, parameterized). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "workloads/gap_workloads.h"
#include "workloads/graph.h"
#include "workloads/workload.h"

namespace ndpext {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numCores = 8;
    p.footprintBytes = 8_MiB;
    p.accessesPerCore = 2000;
    p.seed = 42;
    return p;
}

/**
 * Test-only oracle: makeRmatGraph as it was written before quadrant
 * selection became integer arithmetic, kept verbatim. One nextDouble()
 * draw per bit, MSB first, picks the quadrant through a three-way
 * branch on the double.
 */
CsrGraph
branchyRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
                 std::uint64_t seed)
{
    NDP_ASSERT(scale >= 4 && scale <= 28, "scale=", scale);
    NDP_ASSERT(avg_degree >= 1);
    const std::uint64_t v_count = 1ULL << scale;
    const std::uint64_t e_count = v_count * avg_degree;

    // R-MAT quadrant probabilities (Graph500 defaults).
    constexpr double kA = 0.57;
    constexpr double kB = 0.19;
    constexpr double kC = 0.19;

    Rng rng(seed);
    std::vector<std::uint32_t> src(e_count);
    std::vector<std::uint32_t> dst(e_count);
    for (std::uint64_t e = 0; e < e_count; ++e) {
        std::uint64_t s = 0;
        std::uint64_t d = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
            const double p = rng.nextDouble();
            s <<= 1;
            d <<= 1;
            if (p < kA) {
                // top-left: no bits set
            } else if (p < kA + kB) {
                d |= 1;
            } else if (p < kA + kB + kC) {
                s |= 1;
            } else {
                s |= 1;
                d |= 1;
            }
        }
        src[e] = static_cast<std::uint32_t>(s);
        dst[e] = static_cast<std::uint32_t>(d);
    }

    // Counting sort into CSR.
    CsrGraph g;
    g.numVertices = v_count;
    g.numEdges = e_count;
    g.offsets.assign(v_count + 1, 0);
    for (const auto s : src) {
        ++g.offsets[s + 1];
    }
    for (std::uint64_t v = 0; v < v_count; ++v) {
        g.offsets[v + 1] += g.offsets[v];
    }
    g.edges.resize(e_count);
    std::vector<std::uint64_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (std::uint64_t e = 0; e < e_count; ++e) {
        g.edges[cursor[src[e]]++] = dst[e];
    }
    return g;
}

/** 64-bit digest of a CSR graph: its offsets, then its edges. */
std::uint64_t
csrDigest(const CsrGraph& g)
{
    std::uint64_t h = 0;
    for (const std::uint64_t o : g.offsets) {
        h = mix64(h ^ o);
    }
    for (const std::uint32_t e : g.edges) {
        h = mix64(h ^ e);
    }
    return h;
}

TEST(Graph, RmatMatchesBranchyOracle)
{
    for (std::uint32_t scale = 4; scale <= 14; ++scale) {
        for (const std::uint32_t degree : {1u, 3u, 16u}) {
            for (const std::uint64_t seed :
                 {1ULL, 55ULL, 0x9e3779b97f4a7c15ULL}) {
                SCOPED_TRACE(::testing::Message()
                             << "scale " << scale << " degree " << degree
                             << " seed " << seed);
                const CsrGraph want = branchyRmatGraph(scale, degree, seed);
                const CsrGraph got = makeRmatGraph(scale, degree, seed);
                ASSERT_EQ(got.numVertices, want.numVertices);
                ASSERT_EQ(got.numEdges, want.numEdges);
                ASSERT_EQ(got.offsets, want.offsets);
                ASSERT_EQ(got.edges, want.edges);
            }
        }
    }
}

TEST(Graph, RmatThresholdsMatchDoubleComparison)
{
    // A random draw lands next to a bound with probability ~2^-53, so
    // the oracle test never reaches these cases; check them directly.
    const double bounds[] = {kRmatA, kRmatA + kRmatB,
                             kRmatA + kRmatB + kRmatC};
    const std::uint64_t pinned[] = {5134103575202365ULL,
                                    6845471433603154ULL,
                                    8556839292003942ULL};
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t t = rmatThreshold(bounds[i]);
        EXPECT_EQ(t, pinned[i]);
        for (const std::uint64_t x : {t - 1, t, t + 1}) {
            SCOPED_TRACE(::testing::Message()
                         << "bound " << i << " x " << x);
            const double p = static_cast<double>(x) * 0x1p-53;
            EXPECT_EQ(p < bounds[i], x < t);
            // The quadrant counts the bounds p reaches, whatever the
            // draw's low 11 bits (nextDouble() drops them too).
            const std::uint64_t want = std::uint64_t{p >= bounds[0]}
                + (p >= bounds[1]) + (p >= bounds[2]);
            for (const std::uint64_t low : {0ULL, 0x7ffULL}) {
                EXPECT_EQ(rmatQuadrant((x << 11) | low), want);
            }
        }
    }
}

TEST(Graph, RmatDigestsArePinned)
{
    // Pinned from the branchy generator. (19, 16, 55) is the default pr
    // graph: 96 MiB footprint, workload seed 42 + 13.
    EXPECT_EQ(csrDigest(makeRmatGraph(10, 8, 1)), 0xfb8f80b130c64d83ULL);
    EXPECT_EQ(csrDigest(makeRmatGraph(19, 16, 55)), 0x1bd19faee1e7b248ULL);
}

TEST(Graph, RmatShapeAndDegrees)
{
    const auto g = makeRmatGraph(10, 8, 1);
    EXPECT_EQ(g.numVertices, 1024u);
    EXPECT_EQ(g.numEdges, 8192u);
    EXPECT_EQ(g.offsets.size(), 1025u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), g.numEdges);
    for (std::uint64_t v = 0; v < g.numVertices; ++v) {
        EXPECT_LE(g.offsets[v], g.offsets[v + 1]);
    }
    for (const auto dst : g.edges) {
        EXPECT_LT(dst, g.numVertices);
    }
}

TEST(Graph, RmatIsSkewed)
{
    const auto g = makeRmatGraph(12, 16, 2);
    // Power law: the max degree dwarfs the average.
    std::uint64_t max_deg = 0;
    for (std::uint64_t v = 0; v < g.numVertices; ++v) {
        max_deg = std::max(max_deg, g.degree(v));
    }
    EXPECT_GT(max_deg, 16u * 10);
}

TEST(Graph, Deterministic)
{
    // 2^19 edges: one drawing thread per usable CPU, up to 8.
    const auto a = makeRmatGraph(16, 8, 7);
    const auto b = makeRmatGraph(16, 8, 7);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.offsets, b.offsets);
}

TEST(Graph, RmatEdgeRangesMatchOnePass)
{
    constexpr std::uint32_t kScale = 12;
    constexpr std::uint64_t kEdges = 1ULL << 18;
    constexpr std::uint64_t kSeed = 9;

    // The draw contract itself: one Rng, kScale draws per edge.
    std::vector<std::uint32_t> want_src(kEdges);
    std::vector<std::uint32_t> want_dst(kEdges);
    Rng rng(kSeed);
    for (std::uint64_t e = 0; e < kEdges; ++e) {
        for (std::uint32_t bit = 0; bit < kScale; ++bit) {
            const std::uint64_t q = rmatQuadrant(rng.next());
            want_src[e] = (want_src[e] << 1) | (q >> 1);
            want_dst[e] = (want_dst[e] << 1) | (q & 1);
        }
    }

    const auto check = [&](const std::vector<std::uint64_t>& cuts) {
        SCOPED_TRACE(::testing::Message() << (cuts.size() + 1) << " parts");
        std::vector<std::uint32_t> src(kEdges, ~0u);
        std::vector<std::uint32_t> dst(kEdges, ~0u);
        std::uint64_t begin = 0;
        for (std::size_t i = 0; i <= cuts.size(); ++i) {
            const std::uint64_t end = i < cuts.size() ? cuts[i] : kEdges;
            drawRmatEdges(kScale, kSeed, begin,
                          std::span(src).subspan(begin, end - begin),
                          std::span(dst).subspan(begin, end - begin));
            begin = end;
        }
        EXPECT_EQ(src, want_src);
        EXPECT_EQ(dst, want_dst);
    };
    check({});
    check({1});
    check({7, 174763});
    check({1, 2, 3, 100, 65535, 200000});
}

TEST(Graph, ScaleForFootprint)
{
    const auto s = scaleForFootprint(12_MiB, 16);
    const std::uint64_t v = 1ULL << s;
    EXPECT_LE(v * 8 + v * 16 * 4, 12_MiB);
    EXPECT_GT((v * 2) * 8 + (v * 2) * 16 * 4, 12_MiB);
}

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSuite, PreparesAndRegisters)
{
    auto w = makeWorkload(GetParam());
    EXPECT_EQ(w->name(), GetParam());
    w->prepare(smallParams());
    EXPECT_TRUE(w->prepared());
    EXPECT_GE(w->streamConfigs().size(), 2u);
    StreamTable table;
    w->registerStreams(table);
    EXPECT_EQ(table.numStreams(), w->streamConfigs().size());
}

TEST_P(WorkloadSuite, GeneratorsEmitBoundedValidAccesses)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    StreamTable table;
    w->registerStreams(table);
    for (CoreId c = 0; c < 8; c += 7) { // first and last core
        auto gen = w->makeGenerator(c);
        Access a;
        std::uint64_t count = 0;
        while (gen->next(a)) {
            ++count;
            ASSERT_NE(a.sid, kNoStream);
            const StreamConfig& cfg = table.stream(a.sid);
            ASSERT_TRUE(cfg.contains(a.addr))
                << GetParam() << " stream " << cfg.name;
            ASSERT_EQ(cfg.addrOf(a.elem), a.addr);
            ASSERT_GE(a.computeCycles, 1u);
        }
        EXPECT_EQ(count, smallParams().accessesPerCore);
    }
}

TEST_P(WorkloadSuite, GeneratorsAreDeterministic)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto g1 = w->makeGenerator(3);
    auto g2 = w->makeGenerator(3);
    Access a1;
    Access a2;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(g1->next(a1));
        ASSERT_TRUE(g2->next(a2));
        ASSERT_EQ(a1.addr, a2.addr);
        ASSERT_EQ(a1.sid, a2.sid);
        ASSERT_EQ(a1.isWrite, a2.isWrite);
    }
}

TEST_P(WorkloadSuite, DifferentCoresDiffer)
{
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto g0 = w->makeGenerator(0);
    auto g5 = w->makeGenerator(5);
    Access a0;
    Access a5;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(g0->next(a0));
        ASSERT_TRUE(g5->next(a5));
        same += a0.addr == a5.addr ? 1 : 0;
    }
    EXPECT_LT(same, 200); // not an identical trace
}

TEST_P(WorkloadSuite, WritesTouchOnlyWritableStreamsEventually)
{
    // Streams marked read-only may still be written (backprop phase 2
    // flips w); but streams marked read-write must actually see writes
    // OR reads -- sanity that isWrite is populated at all.
    auto w = makeWorkload(GetParam());
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    bool any_read = false;
    while (gen->next(a)) {
        any_read = any_read || !a.isWrite;
    }
    EXPECT_TRUE(any_read);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadSuite,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(WorkloadFidelity, RecsysEmbeddingLookupsAreSkewed)
{
    auto w = makeWorkload("recsys");
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    std::map<Addr, int> counts;
    std::uint64_t emb_accesses = 0;
    while (gen->next(a)) {
        // Embedding streams are the indirect ones.
        const auto& cfg = w->streamConfigs()[a.sid];
        if (cfg.type == StreamType::Indirect) {
            ++counts[a.addr];
            ++emb_accesses;
        }
    }
    ASSERT_GT(emb_accesses, 100u);
    // Zipf skew: the hottest 10% of touched rows take far more than 10%
    // of the accesses.
    std::vector<int> sorted;
    for (const auto& [addr, c] : counts) {
        sorted.push_back(c);
    }
    std::sort(sorted.rbegin(), sorted.rend());
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < sorted.size() / 10 + 1; ++i) {
        hot += sorted[i];
    }
    // (Loose bound: the exact head mass depends on the scaled table
    // size; uniform access would give ~0.1.)
    EXPECT_GT(static_cast<double>(hot) / emb_accesses, 0.15);
}

TEST(WorkloadFidelity, HotspotHaloReadsCrossBandBoundaries)
{
    // The stencil's up-neighbor read from the first row of core 1's band
    // must target a row inside core 0's band (halo sharing).
    auto w = makeWorkload("hotspot");
    w->prepare(smallParams());
    const StreamConfig& temp = w->streamConfigs()[0];
    ASSERT_EQ(temp.name, "temp");
    auto g1 = w->makeGenerator(1);
    Access a;
    Addr min_temp_addr = temp.end();
    for (int i = 0; i < 2000 && g1->next(a); ++i) {
        if (a.sid == temp.sid) {
            min_temp_addr = std::min(min_temp_addr, a.addr);
        }
    }
    // Core 1's band starts at rows/8 (8 cores); its up-halo read reaches
    // one row below that, i.e., below the band-start address.
    const std::uint64_t rows =
        temp.numElems() / 4096; // cols fixed at 4096 in the workload
    const Addr band_start =
        temp.base + (rows / 8) * 4096 * 4;
    EXPECT_LT(min_temp_addr, band_start)
        << "core 1 should read into core 0's band (halo)";
}

TEST(WorkloadFidelity, BackpropFlipsToWritesLate)
{
    auto w = makeWorkload("backprop");
    w->prepare(smallParams());
    auto gen = w->makeGenerator(0);
    Access a;
    std::uint64_t i = 0;
    std::uint64_t early_writes = 0;
    std::uint64_t late_writes = 0;
    const std::uint64_t half = smallParams().accessesPerCore / 2;
    while (gen->next(a)) {
        if (a.isWrite) {
            (i < half ? early_writes : late_writes) += 1;
        }
        ++i;
    }
    // Phase 2 (adjust_weights) is write-heavy; phase 1 is read-heavy.
    EXPECT_GT(late_writes, early_writes * 2);
}

TEST(WorkloadFidelity, GraphGathersFollowEdges)
{
    // pr's rank gathers must target exactly the neighbor ids of the
    // synthetic graph (the indirection is real, not random).
    auto w = makeWorkload("pr");
    w->prepare(smallParams());
    auto* gap = dynamic_cast<PageRankWorkload*>(w.get());
    ASSERT_NE(gap, nullptr);
    const CsrGraph& g = gap->graph();
    auto gen = w->makeGenerator(0);
    Access a;
    // Collect the set of vertex ids the rank stream touches.
    std::set<ElemId> touched;
    StreamId ranks_sid = kNoStream;
    for (const auto& cfg : w->streamConfigs()) {
        if (cfg.name == "ranks") {
            ranks_sid = cfg.sid;
        }
    }
    ASSERT_NE(ranks_sid, kNoStream);
    while (gen->next(a)) {
        if (a.sid == ranks_sid) {
            touched.insert(a.elem);
        }
    }
    ASSERT_FALSE(touched.empty());
    for (const auto v : touched) {
        ASSERT_LT(v, g.numVertices);
    }
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeWorkload("nope"), "unknown workload");
}

TEST(WorkloadRegistry, ThirteenWorkloads)
{
    EXPECT_EQ(allWorkloadNames().size(), 13u);
}

TEST(Workload, StreamsAnnotatedWithTypes)
{
    // recsys should expose indirect embedding tables + affine weights,
    // mirroring the paper's affine/indirect mix.
    auto w = makeWorkload("recsys");
    w->prepare(smallParams());
    bool has_indirect = false;
    bool has_affine = false;
    bool has_read_only = false;
    bool has_read_write = false;
    for (const auto& cfg : w->streamConfigs()) {
        has_indirect |= cfg.type == StreamType::Indirect;
        has_affine |= cfg.type == StreamType::Affine;
        has_read_only |= cfg.readOnly;
        has_read_write |= !cfg.readOnly;
    }
    EXPECT_TRUE(has_indirect);
    EXPECT_TRUE(has_affine);
    EXPECT_TRUE(has_read_only);
    EXPECT_TRUE(has_read_write);
}

} // namespace
} // namespace ndpext
