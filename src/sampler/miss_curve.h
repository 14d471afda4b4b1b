/**
 * @file
 * A stream's miss curve: estimated misses as a function of cache capacity.
 *
 * Produced by the hardware set-based samplers (Section V-A) at geometric
 * capacity points; consumed by the configuration algorithm (Section V-C),
 * which repeatedly asks for the steepest marginal utility. Interpolation is
 * linear in log-capacity, as in Jigsaw/CDCS; miss counts are clamped to be
 * non-increasing in capacity before use.
 */

#ifndef NDPEXT_SAMPLER_MISS_CURVE_H
#define NDPEXT_SAMPLER_MISS_CURVE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class MissCurve
{
  public:
    MissCurve() = default;

    /**
     * @param capacities ascending capacity points in bytes.
     * @param misses     estimated misses at each point (same length);
     *                   clamped to non-increasing.
     */
    MissCurve(std::vector<std::uint64_t> capacities,
              std::vector<double> misses);

    /**
     * Misses with (near-)zero cache, i.e., the stream's access count.
     * Without it, capacities below the first sampled point clamp to the
     * first point and the lookahead sees zero utility for the very first
     * allocation segment. Values below the first point's misses are
     * ignored.
     */
    void setZeroMisses(double misses);
    double zeroMisses() const { return zeroMisses_; }

    /** Checkpoint pass; a loaded curve passes the constructor's checks. */
    void checkpoint(ckpt::Archive& ar);

    bool empty() const { return capacities_.empty(); }
    std::size_t numPoints() const { return capacities_.size(); }
    const std::vector<std::uint64_t>& capacities() const
    {
        return capacities_;
    }
    const std::vector<double>& misses() const { return misses_; }

    /** Estimated misses with `capacity` bytes of cache (interpolated). */
    double missesAt(std::uint64_t capacity) const;

    /**
     * The next capacity point strictly above `capacity`, or 0 if the
     * curve is exhausted (allocating further cannot help).
     */
    std::uint64_t nextPointAbove(std::uint64_t capacity) const;

    /**
     * Marginal utility of growing from `capacity` to the next point:
     * (misses avoided) / (bytes added). Returns 0 at the curve end.
     */
    double slopeAt(std::uint64_t capacity) const;

    /**
     * True lookahead (UCP): the segment from `capacity` to the future
     * point with the maximum (misses avoided)/(bytes added). A single
     * flat region therefore cannot hide a steep cliff behind it.
     */
    struct Segment
    {
        std::uint64_t target = 0; ///< capacity to grow to (0 = none)
        double slope = 0.0;
    };
    Segment bestSegment(std::uint64_t capacity) const;

    /**
     * Pointwise minimum of two curves over the same capacity points
     * (optimistic blend of a measured curve with a prior).
     */
    static MissCurve pointwiseMin(const MissCurve& a, const MissCurve& b);

  private:
    std::vector<std::uint64_t> capacities_;
    std::vector<double> misses_;
    double zeroMisses_ = -1.0; ///< unset: clamp to the first point
};

} // namespace ndpext

#endif // NDPEXT_SAMPLER_MISS_CURVE_H
