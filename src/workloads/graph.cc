#include "workloads/graph.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/workers.h"

namespace ndpext {

namespace {

/** Whether rmatThreshold(k) is k * 2^53 exactly (no rounding). */
constexpr bool
exactThreshold(double k)
{
    return static_cast<double>(rmatThreshold(k)) == k * 0x1p53;
}

// rmatQuadrant() picks the quadrant nextDouble() would only while every
// bound is an integer at 2^53; a bound below 0.5 may not be.
static_assert(exactThreshold(kRmatA) && exactThreshold(kRmatA + kRmatB)
                  && exactThreshold(kRmatA + kRmatB + kRmatC),
              "R-MAT bound * 2^53 must be an integer");

/** Fewest edges worth a thread of their own. */
constexpr std::uint64_t kMinEdgesPerWorker = 1ULL << 16;

/**
 * Most scatter workers. Each worker scans every source for the edges it
 * owns, so only the placements divide among them. For the 8.4M-edge pr
 * graph on a 4-CPU host the scatter took 0.10-0.16 s on one worker and
 * 0.039-0.047 s on four: about 0.02 s of scan per worker plus 0.09 s of
 * placements shared out. Past 8 workers one more saves under 1.5 ms,
 * while together they already read the 32 MiB of sources 8 times.
 */
constexpr std::uint64_t kMaxScatterWorkers = 8;

using U32Buffer = std::vector<std::uint32_t, NoFillAllocator<std::uint32_t>>;

/** Workers for a pass over e_count edges: one per usable CPU, but at
 *  least kMinEdgesPerWorker edges each. */
std::uint64_t
workersFor(std::uint64_t e_count)
{
    return std::max<std::uint64_t>(
        1, std::min(usableCpus(), e_count / kMinEdgesPerWorker));
}

/**
 * Fill src and dst, the whole edge list, by drawRmatEdges() over one
 * contiguous edge range per worker, and leave each vertex v's
 * out-degree in offsets[v + 1] (offsets zeroed, size V + 1).
 *
 * Each worker counts its range's sources into a private 32-bit
 * histogram as soon as it has drawn them, and the histograms are summed
 * into offsets and freed before the caller allocates the CSR edges.
 * Their total, workers * V * 4 B, is at most the source array when
 * workers <= avg_degree, so they never raise the peak; with more
 * workers this thread counts the sources afterwards. A count split by
 * vertex range instead makes every worker rescan every source: for the
 * pr graph it took 0.045-0.048 s on 4 workers against 0.020-0.022 s on
 * one, while each worker's fused count takes about 0.006 s.
 */
void
drawAndCount(std::uint32_t scale, std::uint32_t avg_degree,
             std::uint64_t seed, std::span<std::uint32_t> src,
             std::span<std::uint32_t> dst,
             std::vector<std::uint64_t>& offsets)
{
    const std::uint64_t e_count = src.size();
    const std::uint64_t v_count = offsets.size() - 1;
    const std::uint64_t workers = workersFor(e_count);
    // A range's counts fit 32 bits while it holds fewer than 2^32 edges.
    const bool fused = workers <= avg_degree
        && (e_count + workers - 1) / workers < (1ULL << 32);
    U32Buffer hist(fused ? workers * v_count : 0);
    // Range w is [e_count * w / workers, e_count * (w + 1) / workers).
    runWorkers(workers, [&](std::uint64_t w) {
        const std::uint64_t begin = e_count * w / workers;
        const std::uint64_t count = e_count * (w + 1) / workers - begin;
        drawRmatEdges(scale, seed, begin, src.subspan(begin, count),
                      dst.subspan(begin, count));
        if (fused) {
            const std::span<std::uint32_t> h(hist.data() + w * v_count,
                                             v_count);
            std::fill(h.begin(), h.end(), 0);
            for (const std::uint32_t s : src.subspan(begin, count)) {
                ++h[s];
            }
        }
    });
    if (!fused) {
        for (const std::uint32_t s : src) {
            ++offsets[s + 1];
        }
        return;
    }
    for (std::uint64_t v = 0; v < v_count; ++v) {
        std::uint64_t degree = 0;
        for (std::uint64_t w = 0; w < workers; ++w) {
            degree += hist[w * v_count + v];
        }
        offsets[v + 1] = degree;
    }
}

/**
 * Place each edge's destination in `edges` at its source's cursor
 * offsets[s + 1], which starts at s's first edge and ends one past its
 * last, so offsets becomes the CSR offsets. Worker w owns the vertices
 * [cut[w], cut[w + 1]), about E / workers edges, and scans the whole
 * edge list in edge order for them, so every vertex keeps its edges in
 * edge-index order for any worker count.
 */
void
scatter(std::span<const std::uint32_t> src,
        std::span<const std::uint32_t> dst,
        std::vector<std::uint64_t>& offsets, std::span<std::uint32_t> edges)
{
    const std::uint64_t e_count = src.size();
    const std::uint64_t v_count = offsets.size() - 1;
    const std::uint64_t workers =
        std::min(workersFor(e_count), kMaxScatterWorkers);
    // starts[v], v's first edge, is ascending in v.
    const std::span<const std::uint64_t> starts(offsets.data() + 1,
                                                v_count);
    std::vector<std::uint32_t> cut(workers + 1,
                                   static_cast<std::uint32_t>(v_count));
    for (std::uint64_t w = 0; w < workers; ++w) {
        cut[w] = static_cast<std::uint32_t>(
            std::lower_bound(starts.begin(), starts.end(),
                             e_count * w / workers)
            - starts.begin());
    }
    std::uint64_t* const cursor = offsets.data() + 1;
    runWorkers(workers, [&](std::uint64_t w) {
        const std::uint32_t first = cut[w];
        const std::uint32_t owned = cut[w + 1] - first;
        for (std::uint64_t e = 0; e < e_count; ++e) {
            const std::uint32_t s = src[e];
            if (s - first < owned) {
                edges[cursor[s]++] = dst[e];
            }
        }
    });
}

} // namespace

void
drawRmatEdges(std::uint32_t scale, std::uint64_t seed,
              std::uint64_t first_edge, std::span<std::uint32_t> src,
              std::span<std::uint32_t> dst)
{
    NDP_ASSERT(src.size() == dst.size());
    Rng rng(seed);
    rng.discard(first_edge * scale);
    // Branch-free on purpose: a branch on each random draw mispredicts
    // often, and this loop makes scale draws per edge.
    for (std::size_t e = 0; e < src.size(); ++e) {
        std::uint64_t s = 0;
        std::uint64_t d = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
            const std::uint64_t q = rmatQuadrant(rng.next());
            s = (s << 1) | (q >> 1);
            d = (d << 1) | (q & 1);
        }
        src[e] = static_cast<std::uint32_t>(s);
        dst[e] = static_cast<std::uint32_t>(d);
    }
}

CsrGraph
makeRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    NDP_ASSERT(scale >= 4 && scale <= 28, "scale=", scale);
    NDP_ASSERT(avg_degree >= 1);
    const std::uint64_t v_count = 1ULL << scale;
    const std::uint64_t e_count = v_count * avg_degree;

    CsrGraph g;
    g.numVertices = v_count;
    g.numEdges = e_count;
    g.offsets.assign(v_count + 1, 0);
    // The draw and the scatter write every slot of these three.
    U32Buffer src(e_count);
    U32Buffer dst(e_count);
    drawAndCount(scale, avg_degree, seed, src, dst, g.offsets);
    // offsets[v + 1] = v's first edge: the scatter's cursor for v.
    std::exclusive_scan(g.offsets.begin() + 1, g.offsets.end(),
                        g.offsets.begin() + 1, std::uint64_t{0});
    g.edges.resize(e_count);
    scatter(src, dst, g.offsets, g.edges);
    return g;
}

std::uint32_t
scaleForFootprint(std::uint64_t target_bytes, std::uint32_t avg_degree)
{
    // CSR bytes ~ V * 8 + V * degree * 4.
    for (std::uint32_t scale = 26; scale > 4; --scale) {
        const std::uint64_t v = 1ULL << scale;
        const std::uint64_t bytes =
            v * 8 + v * static_cast<std::uint64_t>(avg_degree) * 4;
        if (bytes <= target_bytes) {
            return scale;
        }
    }
    return 4;
}

} // namespace ndpext
