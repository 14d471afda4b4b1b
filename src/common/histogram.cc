#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ndpext {

Histogram::Histogram(double max_value, std::size_t buckets)
    : bucketMax_(max_value), bins_(buckets, 0)
{
    NDP_ASSERT(max_value > 0.0 && buckets > 0);
}

void
Histogram::add(double v)
{
    if (std::isnan(v)) {
        return; // NaN samples would poison min/max/sum and bucket lookup
    }
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    if (v >= bucketMax_) {
        ++overflow_;
    } else if (v < 0.0) {
        ++bins_[0];
    } else {
        const auto idx = static_cast<std::size_t>(
            v / bucketMax_ * static_cast<double>(bins_.size()));
        ++bins_[std::min(idx, bins_.size() - 1)];
    }
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0 || std::isnan(q)) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    if (q <= 0.0) {
        return min_;
    }
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    const double width = bucketMax_ / static_cast<double>(bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += static_cast<double>(bins_[i]);
        if (seen >= target) {
            // The bucket midpoint can overshoot the observed range when
            // buckets are coarse (one wide bucket, few samples); the true
            // quantile always lies within [min, max].
            return std::clamp((static_cast<double>(i) + 0.5) * width, min_,
                              max_);
        }
    }
    return max_;
}

} // namespace ndpext
