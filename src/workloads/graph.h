/**
 * @file
 * Synthetic power-law graph generation (R-MAT) in CSR form, standing in
 * for the GAP/Reddit datasets (see DESIGN.md substitution table). R-MAT
 * with (a, b, c) = (0.57, 0.19, 0.19) reproduces the skewed degree
 * distribution that makes graph property accesses cache-unfriendly and
 * hot vertices replication-friendly.
 */

#ifndef NDPEXT_WORKLOADS_GRAPH_H
#define NDPEXT_WORKLOADS_GRAPH_H

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ndpext {

/**
 * std::allocator whose value-less construct() default-initializes, so
 * resize() leaves a trivial element unwritten: a buffer whose every slot
 * is written before it is read skips the zero-fill pass.
 */
template <typename T>
struct NoFillAllocator : std::allocator<T>
{
    NoFillAllocator() = default;

    template <typename U>
    NoFillAllocator(const NoFillAllocator<U>&) noexcept {}

    template <typename U, typename... Args>
    void
    construct(U* p, Args&&... args)
    {
        if constexpr (sizeof...(Args) == 0) {
            ::new (static_cast<void*>(p)) U;
        } else {
            std::construct_at(p, std::forward<Args>(args)...);
        }
    }
};

struct CsrGraph
{
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    /** offsets[v]..offsets[v+1] index into `edges`. Size V+1. */
    std::vector<std::uint64_t> offsets;
    /** Destination vertex ids. Size E. */
    std::vector<std::uint32_t, NoFillAllocator<std::uint32_t>> edges;

    std::uint64_t
    degree(std::uint64_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }
};

/** R-MAT quadrant probabilities a, b, c (Graph500 defaults); d = rest. */
inline constexpr double kRmatA = 0.57;
inline constexpr double kRmatB = 0.19;
inline constexpr double kRmatC = 0.19;

/**
 * Integer form of a quadrant bound k: a 53-bit draw x satisfies
 * x * 2^-53 < k exactly when x < rmatThreshold(k), provided k * 2^53 is
 * an integer (true for every double in [0.5, 1); graph.cc asserts it).
 */
constexpr std::uint64_t
rmatThreshold(double k)
{
    return static_cast<std::uint64_t>(k * 0x1p53);
}

/**
 * The quadrant one Rng::next() draw selects: how many of the cumulative
 * bounds a, a+b, a+b+c its top 53 bits reach. Bit 1 is the source bit,
 * bit 0 the destination bit. Equal to comparing Rng::nextDouble() of the
 * same draw against the bounds as doubles.
 */
inline std::uint64_t
rmatQuadrant(std::uint64_t draw)
{
    constexpr std::uint64_t kT1 = rmatThreshold(kRmatA);
    constexpr std::uint64_t kT2 = rmatThreshold(kRmatA + kRmatB);
    constexpr std::uint64_t kT3 = rmatThreshold(kRmatA + kRmatB + kRmatC);
    const std::uint64_t x = draw >> 11;
    return std::uint64_t{x >= kT1} + (x >= kT2) + (x >= kT3);
}

/**
 * Generate an R-MAT graph with 2^scale vertices and
 * 2^scale * avg_degree directed edges (self-loops allowed, duplicates
 * kept -- both exist in real edge lists). Each edge takes `scale`
 * consecutive draws of an Rng seeded with `seed`, one per bit, most
 * significant bit first; rmatQuadrant() maps a draw to its bits.
 * The CSR build runs on every CPU the process may use (its affinity
 * mask, usableCpus()). Each worker draws one contiguous edge range with
 * drawRmatEdges() and counts its sources; then each places the edges of
 * one vertex range, scanning the edge list in edge order, so a vertex's
 * edges are in edge-index order. The graph is the sequential counting
 * sort's for any worker count.
 */
CsrGraph makeRmatGraph(std::uint32_t scale, std::uint32_t avg_degree,
                       std::uint64_t seed);

/**
 * Draw edges [first_edge, first_edge + src.size()) of the unsorted edge
 * list of makeRmatGraph(scale, *, seed): their sources into `src`, their
 * destinations into `dst` (same size). Starts from Rng(seed) advanced
 * by first_edge * scale draws, so ranges drawn in any order, or
 * concurrently, give the same edges as one pass.
 */
void drawRmatEdges(std::uint32_t scale, std::uint64_t seed,
                   std::uint64_t first_edge, std::span<std::uint32_t> src,
                   std::span<std::uint32_t> dst);

/** Pick a scale so the CSR (8 B offsets + 4 B edges) is ~target bytes. */
std::uint32_t scaleForFootprint(std::uint64_t target_bytes,
                                std::uint32_t avg_degree);

} // namespace ndpext

#endif // NDPEXT_WORKLOADS_GRAPH_H
