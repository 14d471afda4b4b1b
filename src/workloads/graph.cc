#include "workloads/graph.h"

#include <algorithm>
#include <system_error>
#include <thread>

#include <sched.h>

#include "common/logging.h"
#include "common/rng.h"

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

/** CPUs this process may run on: its affinity mask, not every CPU. */
std::uint64_t
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::uint64_t>(CPU_COUNT(&set));
    }
    return std::thread::hardware_concurrency();
}

/**
 * Fill src and dst, the whole edge list, by drawRmatEdges() over one
 * contiguous edge range per usable CPU, but no range shorter than
 * kMinEdgesPerWorker edges. Returns once every range is drawn.
 */
void
drawAllEdges(std::uint32_t scale, std::uint64_t seed,
             std::span<std::uint32_t> src, std::span<std::uint32_t> dst)
{
    const std::uint64_t e_count = src.size();
    const std::uint64_t most = e_count / kMinEdgesPerWorker;
    const auto workers =
        std::max<std::uint64_t>(1, std::min(usableCpus(), most));
    // Range w is [e_count * w / workers, e_count * (w + 1) / workers);
    // this thread draws range 0 while the pool draws the rest.
    const auto draw = [&](std::uint64_t w) {
        const std::uint64_t begin = e_count * w / workers;
        const std::uint64_t count = e_count * (w + 1) / workers - begin;
        drawRmatEdges(scale, seed, begin, src.subspan(begin, count),
                      dst.subspan(begin, count));
    };
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    std::uint64_t w = 1;
    try {
        for (; w < workers; ++w) {
            pool.emplace_back(draw, w);
        }
    } catch (const std::system_error&) {
        // The OS refused a thread; this thread draws the ranges left.
    }
    for (; w < workers; ++w) {
        draw(w);
    }
    draw(0);
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

    std::vector<std::uint32_t> src(e_count);
    std::vector<std::uint32_t> dst(e_count);
    drawAllEdges(scale, seed, src, dst);

    // Counting sort into CSR. Sequential: a vertex-parallel sort was no
    // faster, and per-thread histograms would cost V * 8 B each.
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
