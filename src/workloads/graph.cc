#include "workloads/graph.h"

#include <algorithm>

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

} // namespace

CsrGraph
makeRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
              std::uint64_t seed)
{
    NDP_ASSERT(scale >= 4 && scale <= 28, "scale=", scale);
    NDP_ASSERT(avg_degree >= 1);
    const std::uint64_t v_count = 1ULL << scale;
    const std::uint64_t e_count = v_count * avg_degree;

    // Branch-free on purpose: a branch on each random draw mispredicts
    // often, and this loop makes scale * e_count draws.
    Rng rng(seed);
    std::vector<std::uint32_t> src(e_count);
    std::vector<std::uint32_t> dst(e_count);
    for (std::uint64_t e = 0; e < e_count; ++e) {
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
