/**
 * @file
 * Simple sampling histogram for latency distributions and report tables.
 */

#ifndef NDPEXT_COMMON_HISTOGRAM_H
#define NDPEXT_COMMON_HISTOGRAM_H

#include <cstdint>
#include <vector>

namespace ndpext {

/**
 * Fixed-bucket histogram over [0, max) with `buckets` equal-width bins plus
 * an overflow bin; also tracks count/sum/min/max for exact means.
 */
class Histogram
{
  public:
    Histogram(double max_value, std::size_t buckets);

    void add(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double minValue() const { return min_; }
    double maxValue() const { return max_; }

    /** Value below which `q` (in [0,1]) of the samples fall (approximate). */
    double percentile(double q) const;

    /** Raw state, for checkpoint/restore (bucketMax_ is configuration). */
    const std::vector<std::uint64_t>& bins() const { return bins_; }
    std::uint64_t overflow() const { return overflow_; }

    void
    restore(std::vector<std::uint64_t> bins, std::uint64_t overflow,
            std::uint64_t count, double sum, double min, double max)
    {
        bins_ = std::move(bins);
        overflow_ = overflow;
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

  private:
    double bucketMax_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace ndpext

#endif // NDPEXT_COMMON_HISTOGRAM_H
