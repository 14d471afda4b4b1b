/**
 * @file
 * Edmonds-Karp max-flow (Section V-B) used to assign per-unit hardware
 * samplers to data streams. BFS-augmented Ford-Fulkerson: O(V * E^2),
 * ample for the bipartite graphs here (<= 64 units + 512 streams).
 */

#ifndef NDPEXT_RUNTIME_MAX_FLOW_H
#define NDPEXT_RUNTIME_MAX_FLOW_H

#include <cstdint>
#include <vector>

namespace ndpext {

class MaxFlow
{
  public:
    explicit MaxFlow(std::uint32_t num_nodes);

    /**
     * Add a directed edge u -> v with the given capacity.
     * @return edge index usable with flowOn().
     */
    std::size_t addEdge(std::uint32_t u, std::uint32_t v,
                        std::int64_t capacity);

    /**
     * Compute the maximum s -> t flow. The returned value includes
     * units pushed by seedPath() since the previous solve() call, so
     * a warm-started solve reports the same total as a cold one.
     */
    std::int64_t solve(std::uint32_t s, std::uint32_t t);

    /**
     * Warm-start: push one unit of flow along a path given as forward
     * edge indices (each from addEdge). Succeeds only if every edge on
     * the path has residual capacity >= 1, so seeding can never create
     * an infeasible flow; a later solve() then only augments on top of
     * the seeded units. Max-flow value is unique, so a seeded solve
     * reaches the same total as a cold one.
     * @return true if the unit was pushed, false if any edge was full.
     */
    bool seedPath(const std::vector<std::size_t>& path);

    /** Flow pushed through edge `idx` after solve()/seedPath(). */
    std::int64_t flowOn(std::size_t idx) const;

    /** BFS augmenting paths found by solve() calls (seeding adds none). */
    std::uint64_t augmentingPaths() const { return augmentingPaths_; }

  private:
    struct Edge
    {
        std::uint32_t to;
        std::int64_t cap; ///< residual capacity
        std::int32_t next;
    };

    // Edges stored in pairs: edge 2i is forward, 2i+1 its residual twin.
    std::vector<Edge> edges_;
    std::vector<std::int32_t> head_;
    std::vector<std::int64_t> originalCap_;
    std::uint64_t augmentingPaths_ = 0;
    /** Units pushed by seedPath(), consumed by the next solve(). */
    std::int64_t seeded_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_RUNTIME_MAX_FLOW_H
