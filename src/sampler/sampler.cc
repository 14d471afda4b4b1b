#include "sampler/sampler.h"

#include <algorithm>
#include <cmath>

#include "common/bitutils.h"
#include "common/logging.h"
#include "common/rng.h"

namespace ndpext {

MissCurveSampler::MissCurveSampler(const SamplerParams& params)
    : params_(params)
{
    NDP_ASSERT(params.kSets > 0 && params.numCapacities >= 2);
    NDP_ASSERT(params.minCapacityBytes > 0
               && params.maxCapacityBytes > params.minCapacityBytes);
    // Geometric partition of [min, max] (Section V-A: factor
    // (max/min)^(1/(c-1)), e.g. 1.16 for 32 kB..256 MB over 64 cases).
    const double ratio = std::pow(
        static_cast<double>(params.maxCapacityBytes)
            / static_cast<double>(params.minCapacityBytes),
        1.0 / static_cast<double>(params.numCapacities - 1));
    capacities_.reserve(params.numCapacities);
    double cap = static_cast<double>(params.minCapacityBytes);
    for (std::uint32_t i = 0; i < params.numCapacities; ++i) {
        auto c = static_cast<std::uint64_t>(cap);
        if (!capacities_.empty() && c <= capacities_.back()) {
            c = capacities_.back() + 1; // keep strictly ascending
        }
        capacities_.push_back(c);
        cap *= ratio;
    }
    capacities_.back() = params.maxCapacityBytes;
}

void
MissCurveSampler::configure(StreamId sid, std::uint32_t granule_bytes)
{
    sid_ = sid;
    if (sid == kNoStream) {
        cases_.clear();
        accesses_ = 0;
        return;
    }
    NDP_ASSERT(granule_bytes > 0);
    granuleBytes_ = granule_bytes;
    accesses_ = 0;
    cases_.assign(capacities_.size(), CapacityCase{});
    for (std::size_t i = 0; i < capacities_.size(); ++i) {
        CapacityCase& cc = cases_[i];
        cc.totalSlots = std::max<std::uint64_t>(
            1, capacities_[i] / granule_bytes);
        cc.sampleStep = std::max<std::uint64_t>(
            1, cc.totalSlots / params_.kSets);
        cc.tags.assign(
            std::min<std::uint64_t>(params_.kSets, cc.totalSlots), 0);
    }
}

void
MissCurveSampler::observe(std::uint64_t granule_id)
{
    NDP_ASSERT(assigned());
    ++accesses_;
    const std::uint64_t h = mix64(granule_id ^ mix64(0xa11ce + sid_));
    const std::uint64_t key = granule_id + 1; // 0 = empty tag
    for (auto& cc : cases_) {
        const std::uint64_t slot = h % cc.totalSlots;
        if (slot % cc.sampleStep != 0) {
            continue; // not a sampled set (static interleaving)
        }
        const std::uint64_t idx = slot / cc.sampleStep;
        if (idx >= cc.tags.size()) {
            continue;
        }
        ++cc.observed;
        if (cc.tags[idx] == key) {
            ++cc.hits;
        } else {
            cc.tags[idx] = key;
        }
    }
}

MissCurve
MissCurveSampler::curve(std::uint64_t total_stream_accesses) const
{
    NDP_ASSERT(assigned());
    std::vector<double> misses(capacities_.size(), 0.0);
    for (std::size_t i = 0; i < capacities_.size(); ++i) {
        const CapacityCase& cc = cases_[i];
        double miss_rate = 1.0;
        if (cc.observed > 0) {
            miss_rate = 1.0
                - static_cast<double>(cc.hits)
                    / static_cast<double>(cc.observed);
        }
        misses[i] = miss_rate * static_cast<double>(total_stream_accesses);
    }
    MissCurve curve(capacities_, std::move(misses));
    curve.setZeroMisses(static_cast<double>(total_stream_accesses));
    return curve;
}

SamplerBank::SamplerBank(std::uint32_t num_samplers,
                         const SamplerParams& params)
    : samplers_(num_samplers, MissCurveSampler(params))
{
    NDP_ASSERT(num_samplers > 0);
}

void
SamplerBank::assign(
    const std::vector<std::pair<StreamId, std::uint32_t>>& stream_granules)
{
    NDP_ASSERT(stream_granules.size() <= samplers_.size(),
               "more assignments than samplers");
    // Keep samplers that stay on the same stream so reuse accumulates
    // across epochs; reconfigure only the slots whose stream changed.
    std::vector<bool> slot_kept(samplers_.size(), false);
    std::vector<std::pair<StreamId, std::uint32_t>> pending;
    for (const auto& [sid, granule] : stream_granules) {
        bool kept = false;
        for (std::size_t i = 0; i < samplers_.size(); ++i) {
            if (!slot_kept[i] && samplers_[i].assigned()
                && samplers_[i].sid() == sid) {
                slot_kept[i] = true;
                kept = true;
                break;
            }
        }
        if (!kept) {
            pending.emplace_back(sid, granule);
        }
    }
    std::size_t next = 0;
    for (std::size_t i = 0; i < samplers_.size(); ++i) {
        if (slot_kept[i]) {
            continue;
        }
        if (next < pending.size()) {
            samplers_[i].configure(pending[next].first,
                                   pending[next].second);
            ++next;
        } else {
            samplers_[i].configure(kNoStream, 0);
        }
    }
    NDP_ASSERT(next == pending.size());
}

void
SamplerBank::observe(StreamId sid, std::uint64_t granule_id)
{
    if (sid >= counts_.size()) {
        counts_.resize(sid + std::size_t{1});
    }
    ++counts_[sid];
    for (auto& s : samplers_) {
        if (s.assigned() && s.sid() == sid) {
            s.observe(granule_id);
            return;
        }
    }
}

std::uint64_t
SamplerBank::accessCount(StreamId sid) const
{
    return sid < counts_.size() ? counts_[sid] : 0;
}

const MissCurveSampler*
SamplerBank::samplerFor(StreamId sid) const
{
    for (const auto& s : samplers_) {
        if (s.assigned() && s.sid() == sid) {
            return &s;
        }
    }
    return nullptr;
}

void
SamplerBank::newEpoch()
{
    counts_.clear();
}

} // namespace ndpext
