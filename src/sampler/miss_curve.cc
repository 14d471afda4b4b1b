#include "sampler/miss_curve.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ndpext {

MissCurve::MissCurve(std::vector<std::uint64_t> capacities,
                     std::vector<double> misses)
    : capacities_(std::move(capacities)), misses_(std::move(misses))
{
    NDP_ASSERT(capacities_.size() == misses_.size());
    for (std::size_t i = 1; i < capacities_.size(); ++i) {
        NDP_ASSERT(capacities_[i] > capacities_[i - 1],
                   "capacities must ascend");
        // Set sampling is noisy; enforce the monotonicity the model needs.
        misses_[i] = std::min(misses_[i], misses_[i - 1]);
    }
}

void
MissCurve::setZeroMisses(double misses)
{
    if (!misses_.empty() && misses < misses_.front()) {
        misses = misses_.front();
    }
    zeroMisses_ = misses;
}

void
MissCurve::checkpoint(ckpt::Archive& ar)
{
    ar.seq(capacities_, [&](std::uint64_t& c) { ar.u64(c); });
    ar.seq(misses_, [&](double& m) { ar.d(m); });
    ar.d(zeroMisses_);
    if (ar.loading()) {
        // The -1 "unset" sentinel stays unset; a stored value is already
        // clamped, so neither step changes a value of a saved curve.
        const double zero = zeroMisses_;
        *this = MissCurve(std::move(capacities_), std::move(misses_));
        if (zero >= 0.0) {
            setZeroMisses(zero);
        }
    }
}

double
MissCurve::missesAt(std::uint64_t capacity) const
{
    if (capacities_.empty()) {
        return 0.0;
    }
    if (capacity <= capacities_.front()) {
        if (zeroMisses_ < 0.0 || capacity >= capacities_.front()) {
            return misses_.front();
        }
        // Linear ramp from (0, zeroMisses) to the first sampled point.
        const double f = static_cast<double>(capacity)
            / static_cast<double>(capacities_.front());
        return zeroMisses_ + f * (misses_.front() - zeroMisses_);
    }
    if (capacity >= capacities_.back()) {
        return misses_.back();
    }
    const auto it = std::upper_bound(capacities_.begin(), capacities_.end(),
                                     capacity);
    const std::size_t hi = static_cast<std::size_t>(
        std::distance(capacities_.begin(), it));
    const std::size_t lo = hi - 1;
    // Linear interpolation in log-capacity (points are geometric).
    const double x = std::log2(static_cast<double>(capacity));
    const double x0 = std::log2(static_cast<double>(capacities_[lo]));
    const double x1 = std::log2(static_cast<double>(capacities_[hi]));
    const double f = (x - x0) / (x1 - x0);
    return misses_[lo] + f * (misses_[hi] - misses_[lo]);
}

std::uint64_t
MissCurve::nextPointAbove(std::uint64_t capacity) const
{
    const auto it = std::upper_bound(capacities_.begin(), capacities_.end(),
                                     capacity);
    return it == capacities_.end() ? 0 : *it;
}

MissCurve
MissCurve::pointwiseMin(const MissCurve& a, const MissCurve& b)
{
    NDP_ASSERT(a.capacities_ == b.capacities_,
               "pointwiseMin requires identical capacity points");
    std::vector<double> misses(a.misses_.size());
    for (std::size_t i = 0; i < misses.size(); ++i) {
        misses[i] = std::min(a.misses_[i], b.misses_[i]);
    }
    MissCurve out(a.capacities_, std::move(misses));
    if (a.zeroMisses_ >= 0.0 || b.zeroMisses_ >= 0.0) {
        out.setZeroMisses(std::max(a.zeroMisses_, b.zeroMisses_));
    }
    return out;
}

double
MissCurve::slopeAt(std::uint64_t capacity) const
{
    const std::uint64_t next = nextPointAbove(capacity);
    if (next == 0) {
        return 0.0;
    }
    const double gained = missesAt(capacity) - missesAt(next);
    const double bytes = static_cast<double>(next - capacity);
    return gained <= 0.0 ? 0.0 : gained / bytes;
}

MissCurve::Segment
MissCurve::bestSegment(std::uint64_t capacity) const
{
    Segment best;
    const double here = missesAt(capacity);
    const auto it = std::upper_bound(capacities_.begin(), capacities_.end(),
                                     capacity);
    for (auto p = it; p != capacities_.end(); ++p) {
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(capacities_.begin(), p));
        const double gained = here - misses_[idx];
        if (gained <= 0.0) {
            continue;
        }
        const double slope = gained / static_cast<double>(*p - capacity);
        if (slope > best.slope) {
            best.slope = slope;
            best.target = *p;
        }
    }
    return best;
}

} // namespace ndpext
