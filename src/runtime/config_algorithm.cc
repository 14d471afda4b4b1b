#include "runtime/config_algorithm.h"

#include <algorithm>
#include <cmath>

#include "common/bitutils.h"
#include "common/logging.h"

namespace ndpext {

namespace {

/**
 * Rows a member keeps after a merge scales its group by `scale`.
 * Nonzero members keep at least one row so rounding cannot silently
 * annihilate an allocation; the merge-plan feasibility check uses the
 * same arithmetic.
 */
std::uint32_t
scaledKeep(std::uint32_t rows, double scale)
{
    if (rows == 0) {
        return 0;
    }
    const auto kept = static_cast<std::uint32_t>(
        std::llround(static_cast<double>(rows) * scale));
    return std::max<std::uint32_t>(1, kept);
}

} // namespace

std::uint64_t
ConfigAlgorithm::Group::totalRows() const
{
    std::uint64_t total = 0;
    for (const auto& [unit, r] : rows) {
        total += r;
    }
    return total;
}

ConfigAlgorithm::ConfigAlgorithm(const ConfigParams& params,
                                 const NocModel& noc)
    : params_(params), noc_(noc)
{
    NDP_ASSERT(params.numUnits > 0 && params.rowsPerUnit > 0
               && params.rowBytes > 0);
}

double
ConfigAlgorithm::atten(UnitId from, UnitId to) const
{
    const Cycles icn = noc_.pureLatency(from, to);
    return static_cast<double>(params_.dramLatency)
        / static_cast<double>(params_.dramLatency + icn);
}

std::uint32_t
ConfigAlgorithm::sharedNeed(const StreamDemand& d, UnitId unit,
                            std::uint32_t rows) const
{
    if (!d.reserved) {
        return rows;
    }
    const auto it = tenantCaps_.find(d.tenant);
    if (it == tenantCaps_.end()) {
        return rows; // reserved tenant with a zero carve-out
    }
    const TenantCap& tc = it->second;
    const std::uint32_t ownFree = tc.reservedRows > tc.used[unit]
        ? tc.reservedRows - tc.used[unit]
        : 0;
    return rows > ownFree ? rows - ownFree : 0;
}

bool
ConfigAlgorithm::canAlloc(const StreamDemand& d, UnitId unit,
                          std::uint32_t rows) const
{
    if (freeRows_[unit] < rows) {
        return false;
    }
    if (d.affine && params_.affineCapBytesPerUnit > 0) {
        const std::uint64_t would = affineBytesUsed_[unit]
            + static_cast<std::uint64_t>(rows) * params_.rowBytes;
        if (would > params_.affineCapBytesPerUnit) {
            return false;
        }
    }
    if (totalReservedRows_ > 0
        && sharedUsed_[unit] + sharedNeed(d, unit, rows)
            > sharedCapacity()) {
        return false;
    }
    return true;
}

void
ConfigAlgorithm::classAlloc(const StreamDemand& d, UnitId unit,
                            std::uint32_t rows)
{
    if (totalReservedRows_ == 0) {
        return;
    }
    const std::uint32_t spill = sharedNeed(d, unit, rows);
    if (d.reserved) {
        const auto it = tenantCaps_.find(d.tenant);
        if (it != tenantCaps_.end()) {
            it->second.used[unit] += rows;
        }
    }
    sharedUsed_[unit] += spill;
    NDP_ASSERT(sharedUsed_[unit] <= sharedCapacity(),
               "QoS shared pool overflow on unit ", unit);
}

void
ConfigAlgorithm::classFree(const StreamDemand& d, UnitId unit,
                           std::uint32_t rows)
{
    if (totalReservedRows_ == 0) {
        return;
    }
    std::uint32_t from_shared = rows;
    if (d.reserved) {
        const auto it = tenantCaps_.find(d.tenant);
        if (it != tenantCaps_.end()) {
            TenantCap& tc = it->second;
            NDP_ASSERT(tc.used[unit] >= rows,
                       "QoS tenant accounting underflow on unit ", unit);
            const auto spillOf = [&](std::uint32_t used) {
                return used > tc.reservedRows ? used - tc.reservedRows
                                              : 0;
            };
            const std::uint32_t before = spillOf(tc.used[unit]);
            tc.used[unit] -= rows;
            from_shared = before - spillOf(tc.used[unit]);
        }
    }
    NDP_ASSERT(sharedUsed_[unit] >= from_shared,
               "QoS shared pool underflow on unit ", unit);
    sharedUsed_[unit] -= from_shared;
}

void
ConfigAlgorithm::doAlloc(SState& s, std::int32_t group, UnitId unit,
                         std::uint32_t rows)
{
    NDP_ASSERT(group >= 0
               && group < static_cast<std::int32_t>(s.groups.size()));
    NDP_ASSERT(freeRows_[unit] >= rows);
    s.groups[static_cast<std::size_t>(group)].rows[unit] += rows;
    s.servedBy.clear();
    s.groupOfUnit[unit] = group;
    freeRows_[unit] -= rows;
    if (s.d.affine) {
        affineBytesUsed_[unit] +=
            static_cast<std::uint64_t>(rows) * params_.rowBytes;
        NDP_ASSERT(params_.affineCapBytesPerUnit == 0
                       || affineBytesUsed_[unit]
                           <= params_.affineCapBytesPerUnit,
                   "affine cap violated on unit ", unit);
    }
    classAlloc(s.d, unit, rows);
}

std::int32_t
ConfigAlgorithm::groupForUnit(SState& s, std::size_t acc_idx)
{
    const UnitId uid = s.d.accUnits[acc_idx];
    const std::int32_t cur = s.groupOfUnit[uid];
    if (cur >= 0 && !s.groups[static_cast<std::size_t>(cur)].dead) {
        return cur;
    }
    // No live allocation here yet: join the accessor's initial replica
    // group (read-write streams all share group 0). If that group was
    // merged away, join the nearest live group, or resurrect it.
    std::int32_t g = s.initGroupOf[acc_idx];
    if (s.groups[static_cast<std::size_t>(g)].dead) {
        const std::int32_t live = servingGroups(s)[acc_idx];
        if (live >= 0) {
            g = live;
        } else {
            s.groups[static_cast<std::size_t>(g)].dead = false;
            s.servedBy.clear();
        }
    }
    return g;
}

std::int32_t
ConfigAlgorithm::servingGroup(const SState& s, std::size_t acc_idx) const
{
    const UnitId from = s.d.accUnits[acc_idx];
    double best = -1.0;
    std::int32_t best_g = -1;
    for (std::size_t g = 0; g < s.groups.size(); ++g) {
        const Group& gr = s.groups[g];
        if (gr.dead) {
            continue;
        }
        const std::uint64_t total = gr.totalRows();
        if (total == 0) {
            continue;
        }
        double lat = 0.0;
        for (const auto& [unit, rows] : gr.rows) {
            lat += static_cast<double>(rows)
                * static_cast<double>(noc_.pureLatency(from, unit));
        }
        lat /= static_cast<double>(total);
        if (best_g == -1 || lat < best) {
            best = lat;
            best_g = static_cast<std::int32_t>(g);
        }
    }
    return best_g;
}

const std::vector<std::int32_t>&
ConfigAlgorithm::servingGroups(const SState& s) const
{
    if (s.servedBy.empty()) {
        s.servedBy.resize(s.d.accUnits.size());
        for (std::size_t i = 0; i < s.servedBy.size(); ++i) {
            s.servedBy[i] = servingGroup(s, i);
        }
    }
    return s.servedBy;
}

std::vector<std::size_t>
ConfigAlgorithm::accessorsOf(const SState& s, std::int32_t g) const
{
    const std::vector<std::int32_t>& served = servingGroups(s);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < served.size(); ++i) {
        if (served[i] == g) {
            out.push_back(i);
        }
    }
    return out;
}

double
ConfigAlgorithm::groupUtility(const SState& s, std::int32_t g) const
{
    NDP_ASSERT(g >= 0 && g < static_cast<std::int32_t>(s.groups.size()));
    const Group& gr = s.groups[static_cast<std::size_t>(g)];
    if (gr.dead) {
        return 0.0;
    }
    double util = 0.0;
    for (const std::size_t i : accessorsOf(s, g)) {
        const UnitId a = s.d.accUnits[i];
        const double w = s.totalAccesses == 0
            ? 1.0
            : static_cast<double>(s.d.accCounts[i])
                / static_cast<double>(s.totalAccesses);
        for (const auto& [unit, rows] : gr.rows) {
            util += w * static_cast<double>(rows) * params_.rowBytes
                * atten(a, unit);
        }
    }
    return util;
}

ConfigAlgorithm::ExtendPlan
ConfigAlgorithm::bestExtend(const SState& s, std::int32_t g, UnitId near,
                            std::uint32_t rows) const
{
    // Candidate units ordered by distance from the requesting unit that
    // (a) have space and (b) do not already hold this stream.
    std::vector<UnitId> candidates;
    for (UnitId u = 0; u < params_.numUnits; ++u) {
        if (u != near && s.groupOfUnit[u] < 0
            && canAlloc(s.d, u, rows)) {
            candidates.push_back(u);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](UnitId a, UnitId b) {
                  return noc_.pureLatency(near, a)
                      < noc_.pureLatency(near, b);
              });

    ExtendPlan plan;
    const std::size_t limit =
        std::min<std::size_t>(candidates.size(), params_.extendCandidates);
    const auto accessors = accessorsOf(s, g);
    const double seg_bytes =
        static_cast<double>(rows) * params_.rowBytes;
    for (std::size_t i = 0; i < limit; ++i) {
        const UnitId cand = candidates[i];
        double gain = 0.0;
        for (const std::size_t a_idx : accessors) {
            const UnitId a = s.d.accUnits[a_idx];
            const double w = s.totalAccesses == 0
                ? 1.0
                : static_cast<double>(s.d.accCounts[a_idx])
                    / static_cast<double>(s.totalAccesses);
            gain += w * seg_bytes * atten(a, cand);
        }
        if (gain > plan.gain) {
            plan.gain = gain;
            plan.unit = cand;
        }
    }
    return plan;
}

ConfigAlgorithm::MergePlan
ConfigAlgorithm::bestMerge(UnitId uid, const SState& current,
                           std::int32_t cur_group,
                           std::uint32_t rows_needed, double place_gain)
{
    (void)cur_group;
    MergePlan best;
    for (std::size_t si = 0; si < states_.size(); ++si) {
        SState& s2 = states_[si];
        if (!s2.d.readOnly) {
            continue; // merging reduces replication; needs >= 2 groups
        }
        // Live groups.
        std::vector<std::int32_t> live;
        for (std::size_t g = 0; g < s2.groups.size(); ++g) {
            if (!s2.groups[g].dead && s2.groups[g].totalRows() > 0) {
                live.push_back(static_cast<std::int32_t>(g));
            }
        }
        if (live.size() < 2) {
            continue;
        }
        // groupA: the lowest-utility group containing uid.
        std::int32_t ga = -1;
        double ga_util = 0.0;
        for (const std::int32_t g : live) {
            if (s2.groups[static_cast<std::size_t>(g)].rows.count(uid)
                == 0) {
                continue;
            }
            const double u = groupUtility(s2, g);
            if (ga == -1 || u < ga_util) {
                ga = g;
                ga_util = u;
            }
        }
        if (ga == -1) {
            continue;
        }
        // groupB: nearest other group (min average member distance).
        std::int32_t gb = -1;
        double gb_dist = 0.0;
        const Group& a = s2.groups[static_cast<std::size_t>(ga)];
        for (const std::int32_t g : live) {
            if (g == ga) {
                continue;
            }
            const Group& b = s2.groups[static_cast<std::size_t>(g)];
            double dist = 0.0;
            std::uint64_t pairs = 0;
            for (const auto& [ua, ra] : a.rows) {
                (void)ra;
                for (const auto& [ub, rb] : b.rows) {
                    (void)rb;
                    dist += static_cast<double>(noc_.pureLatency(ua, ub));
                    ++pairs;
                }
            }
            dist /= static_cast<double>(std::max<std::uint64_t>(1, pairs));
            if (gb == -1 || dist < gb_dist) {
                gb = g;
                gb_dist = dist;
            }
        }
        if (gb == -1) {
            continue;
        }

        // Simulate the merge to estimate freed rows on uid and the
        // utility delta.
        const Group& b = s2.groups[static_cast<std::size_t>(gb)];
        const std::uint64_t bytes_a = a.totalRows() * params_.rowBytes;
        const std::uint64_t bytes_b = b.totalRows() * params_.rowBytes;
        const double scale = static_cast<double>(
                                 std::max(bytes_a, bytes_b))
            / static_cast<double>(bytes_a + bytes_b);
        const auto it = a.rows.find(uid);
        const std::uint32_t rows_at_uid =
            it == a.rows.end() ? 0 : it->second;
        const std::uint32_t kept = scaledKeep(rows_at_uid, scale);
        const std::uint32_t freed =
            rows_at_uid > kept ? rows_at_uid - kept : 0;
        if (freeRows_[uid] + freed < rows_needed) {
            continue; // merging would not unblock this allocation
        }

        const double util_before =
            groupUtility(s2, ga) + groupUtility(s2, gb);
        // Post-merge utility approximated on the scaled member rows.
        double util_after = 0.0;
        {
            // Build a scratch merged group.
            Group merged;
            for (const auto& [u, r] : a.rows) {
                merged.rows[u] += static_cast<std::uint32_t>(
                    std::floor(static_cast<double>(r) * scale));
            }
            for (const auto& [u, r] : b.rows) {
                merged.rows[u] += static_cast<std::uint32_t>(
                    std::floor(static_cast<double>(r) * scale));
            }
            // Utility over the union of both groups' accessors.
            const auto acc_a = accessorsOf(s2, ga);
            const auto acc_b = accessorsOf(s2, gb);
            std::vector<std::size_t> acc = acc_a;
            acc.insert(acc.end(), acc_b.begin(), acc_b.end());
            for (const std::size_t i : acc) {
                const UnitId from = s2.d.accUnits[i];
                const double w = s2.totalAccesses == 0
                    ? 1.0
                    : static_cast<double>(s2.d.accCounts[i])
                        / static_cast<double>(s2.totalAccesses);
                for (const auto& [u, r] : merged.rows) {
                    util_after += w * static_cast<double>(r)
                        * params_.rowBytes * atten(from, u);
                }
            }
        }
        const double gain = place_gain - (util_before - util_after);
        if (!best.valid || gain > best.gain) {
            best.valid = true;
            best.stream = si;
            best.groupA = ga;
            best.groupB = gb;
            best.gain = gain;
        }
    }
    (void)current;
    return best;
}

std::uint32_t
ConfigAlgorithm::applyMerge(const MergePlan& plan, UnitId uid)
{
    NDP_ASSERT(plan.valid);
    SState& s = states_[plan.stream];
    Group& a = s.groups[static_cast<std::size_t>(plan.groupA)];
    Group& b = s.groups[static_cast<std::size_t>(plan.groupB)];

    const std::uint64_t bytes_a = a.totalRows() * params_.rowBytes;
    const std::uint64_t bytes_b = b.totalRows() * params_.rowBytes;
    const double scale =
        static_cast<double>(std::max(bytes_a, bytes_b))
        / static_cast<double>(bytes_a + bytes_b);

    std::uint32_t freed_at_uid = 0;
    Group merged;
    auto fold = [&](Group& src) {
        for (auto& [unit, rows] : src.rows) {
            const std::uint32_t kept = scaledKeep(rows, scale);
            const std::uint32_t freed = rows > kept ? rows - kept : 0;
            freeRows_[unit] += freed;
            if (s.d.affine) {
                affineBytesUsed_[unit] -=
                    static_cast<std::uint64_t>(freed) * params_.rowBytes;
            }
            classFree(s.d, unit, freed);
            if (unit == uid) {
                freed_at_uid += freed;
            }
            if (kept > 0) {
                merged.rows[unit] += kept;
            } else {
                s.groupOfUnit[unit] = -1;
            }
        }
        src.rows.clear();
    };
    fold(a);
    fold(b);

    a.rows = std::move(merged.rows);
    b.dead = true;
    s.servedBy.clear();
    for (const auto& [unit, rows] : a.rows) {
        (void)rows;
        s.groupOfUnit[unit] = plan.groupA;
    }
    ++merges_;
    return freed_at_uid;
}

std::vector<std::pair<StreamId, StreamAlloc>>
ConfigAlgorithm::run(std::vector<StreamDemand> demands)
{
    states_.clear();
    freeRows_.assign(params_.numUnits, params_.rowsPerUnit);
    affineBytesUsed_.assign(params_.numUnits, 0);
    iterations_ = extends_ = merges_ = 0;
    lastBudgetHit_ = false;

    // Failed units contribute neither capacity nor (trustworthy) demand:
    // their sampler state died with them (Section V degraded mode).
    for (UnitId u = 0;
         u < params_.numUnits && u < failedUnits_.size(); ++u) {
        if (failedUnits_[u]) {
            freeRows_[u] = 0;
        }
    }
    for (auto& d : demands) {
        std::vector<UnitId> live_units;
        std::vector<std::uint64_t> live_counts;
        for (std::size_t i = 0; i < d.accUnits.size(); ++i) {
            const UnitId u = d.accUnits[i];
            if (u < failedUnits_.size() && failedUnits_[u]) {
                continue;
            }
            live_units.push_back(u);
            live_counts.push_back(d.accCounts[i]);
        }
        d.accUnits = std::move(live_units);
        d.accCounts = std::move(live_counts);
    }

    for (auto& d : demands) {
        NDP_ASSERT(d.accUnits.size() == d.accCounts.size());
        if (d.accUnits.empty() || d.footprintBytes == 0) {
            continue;
        }
        SState s;
        s.d = std::move(d);
        s.groupOfUnit.assign(params_.numUnits, -1);
        for (const auto c : s.d.accCounts) {
            s.totalAccesses += c;
        }
        states_.push_back(std::move(s));
    }

    // QoS carve-outs: one reservation per reserved tenant *present in
    // this run's demands* -- a departed tenant's reservation returns to
    // the shared pool automatically on the next reconfiguration.
    tenantCaps_.clear();
    totalReservedRows_ = 0;
    sharedUsed_.assign(params_.numUnits, 0);
    for (const auto& s : states_) {
        const StreamDemand& d = s.d;
        if (d.tenant == kNoQosTenant || !d.reserved
            || d.reservedRowsPerUnit == 0) {
            continue;
        }
        TenantCap& tc = tenantCaps_[d.tenant];
        if (tc.used.empty()) {
            tc.reservedRows = d.reservedRowsPerUnit;
            tc.used.assign(params_.numUnits, 0);
            totalReservedRows_ += tc.reservedRows;
        }
    }
    NDP_ASSERT(totalReservedRows_ <= params_.rowsPerUnit,
               "QoS reservations exceed unit capacity (",
               totalReservedRows_, " > ", params_.rowsPerUnit, ")");

    // Initial replication degrees. A stream starts with as many replica
    // groups as the cache space it can plausibly claim (its access share
    // of half the machine) could hold full copies of its footprint --
    // hot, small streams (e.g., shared weights/vectors) replicate widely,
    // large or lukewarm ones start consolidated. Merging still reduces
    // degrees further under pressure (Section V-C).
    {
        const std::uint64_t total_cap =
            static_cast<std::uint64_t>(params_.numUnits)
            * params_.rowsPerUnit * params_.rowBytes;
        std::uint64_t all_accesses = 0;
        for (const auto& s : states_) {
            all_accesses += s.totalAccesses;
        }
        for (auto& s : states_) {
            std::size_t k = 1;
            if (params_.allowReplication && s.d.readOnly
                && all_accesses > 0) {
                const double share = static_cast<double>(s.totalAccesses)
                    / static_cast<double>(all_accesses);
                const double affordable = share
                    * static_cast<double>(total_cap / 2)
                    / static_cast<double>(
                          std::max<std::uint64_t>(1, s.d.footprintBytes));
                k = static_cast<std::size_t>(std::min<double>(
                    std::max(1.0, affordable),
                    static_cast<double>(s.d.accUnits.size())));
            }
            s.groups.resize(std::max<std::size_t>(1, k));
            s.servedBy.clear();
            s.initGroupOf.resize(s.d.accUnits.size());
            for (std::size_t i = 0; i < s.d.accUnits.size(); ++i) {
                s.initGroupOf[i] = static_cast<std::int32_t>(
                    i * s.groups.size() / s.d.accUnits.size());
            }
        }
    }

    // Guaranteed floor: every accessed stream gets a sliver of space on
    // each accessing unit before the lookahead competition starts. This
    // prevents noisy epochs from starving a stream outright (which would
    // send all of its accesses to extended memory) and bounds epoch-to-
    // epoch allocation churn.
    {
        const std::uint32_t floor_rows = std::max<std::uint32_t>(
            1,
            params_.rowsPerUnit
                / (8
                   * std::max<std::size_t>(std::size_t{1},
                                           states_.size())));
        for (auto& s : states_) {
            for (std::size_t i = 0; i < s.d.accUnits.size(); ++i) {
                const UnitId uid = s.d.accUnits[i];
                if (canAlloc(s.d, uid, floor_rows)) {
                    doAlloc(s, groupForUnit(s, i), uid, floor_rows);
                }
            }
            s.posBytes = std::min<std::uint64_t>(
                s.d.footprintBytes,
                static_cast<std::uint64_t>(floor_rows) * params_.rowBytes);
        }
    }

    while (iterations_ < params_.maxIterations) {
        // Anytime budget: every iteration boundary is a valid placement
        // (the floor allocation above guarantees feasibility), so we can
        // stop here and emit the best-so-far configuration. The cap is
        // counted, not timed, so it is deterministic.
        if (params_.budgetIterations != 0
            && iterations_ >= params_.budgetIterations) {
            ++budgetHits_;
            lastBudgetHit_ = true;
            break;
        }
        ++iterations_;
        // NextSteepestSlopeSeg: the stream with max marginal utility over
        // its whole remaining curve (UCP lookahead). A replicated stream
        // pays the segment cost once per copy, so its slope is discounted
        // by the replication degree -- this is the hit-rate-vs-hit-latency
        // balance of Section V-C: replicas stay attractive while space is
        // abundant and lose out as capacity pressure mounts.
        SState* best = nullptr;
        MissCurve::Segment best_seg;
        double best_eff = 0.0;
        for (auto& s : states_) {
            if (s.exhausted || s.posBytes >= s.d.footprintBytes) {
                continue;
            }
            const auto seg = s.d.curve.bestSegment(s.posBytes);
            if (seg.target == 0) {
                continue;
            }
            double degree = 1.0;
            if (s.d.readOnly) {
                std::size_t live = 0;
                for (const auto& gr : s.groups) {
                    live += (!gr.dead && gr.totalRows() > 0) ? 1 : 0;
                }
                degree = static_cast<double>(
                    live > 0 ? live
                             : std::max<std::size_t>(1, s.groups.size()));
                // Replication also buys hit latency: a local replica
                // avoids the mesh. Credit the average attenuation gain.
                degree = std::max(1.0, degree * 0.5);
            }
            const double eff = seg.slope / degree;
            // Near-ties (e.g., identical prior curves of sibling streams)
            // round-robin by position, otherwise the first stream would
            // monopolize the whole machine.
            constexpr double kTieRel = 1e-3;
            const bool wins = eff > best_eff * (1.0 + kTieRel);
            const bool ties = best != nullptr
                && eff >= best_eff * (1.0 - kTieRel)
                && s.posBytes < best->posBytes;
            if (best == nullptr ? eff > 0.0 : (wins || ties)) {
                best_eff = eff;
                best_seg = seg;
                best = &s;
            }
        }
        if (best == nullptr) {
            break; // all curves flat or exhausted
        }
        SState& s = *best;

        std::uint64_t next = best_seg.target;
        if (next == 0 || next > s.d.footprintBytes) {
            next = s.d.footprintBytes;
        }
        if (next <= s.posBytes) {
            s.exhausted = true;
            continue;
        }
        // Cap segments so late (geometric, hence large) curve steps can
        // still be satisfied by extend/merge freeing modest space.
        const std::uint64_t seg_bytes = next - s.posBytes;
        const std::uint32_t max_seg_rows = std::max<std::uint32_t>(
            1, params_.rowsPerUnit / 8);
        const std::uint32_t seg_rows = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ceilDiv(seg_bytes, params_.rowBytes),
                                    max_seg_rows));

        // Which units receive this segment: one allocation request per
        // replica group (each copy grows by exactly one segment per
        // iteration, keeping group capacity in lockstep with posBytes);
        // the requesting accessor rotates within the group's cluster.
        // Read-write streams have a single group.
        std::vector<std::size_t> targets;
        if (s.d.readOnly) {
            std::map<std::int32_t, std::vector<std::size_t>> members;
            for (std::size_t i = 0; i < s.d.accUnits.size(); ++i) {
                std::int32_t g = s.groupOfUnit[s.d.accUnits[i]];
                if (g < 0
                    || s.groups[static_cast<std::size_t>(g)].dead) {
                    g = s.initGroupOf[i];
                }
                members[g].push_back(i);
            }
            for (const auto& [g, accs] : members) {
                (void)g;
                targets.push_back(accs[s.rwCursor % accs.size()]);
            }
            ++s.rwCursor;
        } else {
            targets.push_back(s.rwCursor % s.d.accUnits.size());
            ++s.rwCursor;
        }

        bool progress = false;
        for (const std::size_t acc_idx : targets) {
            const UnitId uid = s.d.accUnits[acc_idx];
            const std::int32_t g = groupForUnit(s, acc_idx);

            if (canAlloc(s.d, uid, seg_rows)) {
                doAlloc(s, g, uid, seg_rows);
                progress = true;
                continue;
            }

            // The affine space restriction cannot be relieved by merging
            // or extending near this unit never helps it; only try remote
            // placement when rows (not the tag-SRAM cap) are binding.
            const bool cap_bound = s.d.affine
                && params_.affineCapBytesPerUnit > 0
                && affineBytesUsed_[uid]
                        + static_cast<std::uint64_t>(seg_rows)
                            * params_.rowBytes
                    > params_.affineCapBytesPerUnit;

            // Local space exhausted: extend vs merge (Alg. 1 lines 9-21).
            const double place_gain =
                static_cast<double>(seg_rows) * params_.rowBytes;
            const ExtendPlan ext = bestExtend(s, g, uid, seg_rows);
            MergePlan mrg;
            if (!cap_bound) {
                mrg = bestMerge(uid, s, g, seg_rows, place_gain);
            }

            if (ext.unit != kNoUnit
                && (!mrg.valid || ext.gain >= mrg.gain)) {
                doAlloc(s, g, ext.unit, seg_rows);
                ++extends_;
                progress = true;
            } else if (mrg.valid) {
                applyMerge(mrg, uid);
                if (canAlloc(s.d, uid, seg_rows)) {
                    doAlloc(s, groupForUnit(s, acc_idx), uid, seg_rows);
                    progress = true;
                }
            }
        }

        if (progress) {
            // Advance by what was actually granted per copy; reaching
            // `next` may take several iterations with capped segments.
            s.posBytes = std::min<std::uint64_t>(
                next,
                s.posBytes
                    + static_cast<std::uint64_t>(seg_rows)
                        * params_.rowBytes);
        } else {
            s.exhausted = true;
        }
    }

    return emit();
}

std::vector<std::pair<StreamId, StreamAlloc>>
ConfigAlgorithm::emit()
{
    std::vector<std::pair<StreamId, StreamAlloc>> out;
    out.reserve(states_.size());
    for (const SState& s : states_) {
        StreamAlloc alloc(params_.numUnits);
        // Compact live groups to dense ids.
        std::vector<std::int32_t> dense(s.groups.size(), -1);
        std::uint16_t next_id = 0;
        for (std::size_t g = 0; g < s.groups.size(); ++g) {
            if (!s.groups[g].dead && s.groups[g].totalRows() > 0) {
                dense[g] = next_id++;
            }
        }
        alloc.numGroups = std::max<std::uint16_t>(next_id, 1);
        for (std::size_t g = 0; g < s.groups.size(); ++g) {
            if (dense[g] < 0) {
                continue;
            }
            for (const auto& [unit, rows] : s.groups[g].rows) {
                alloc.shareRows[unit] = rows;
                alloc.groupOf[unit] =
                    static_cast<std::uint16_t>(dense[g]);
            }
        }
        out.emplace_back(s.d.sid, std::move(alloc));
    }

    // RRowBase: bump allocation per unit over the emitted streams.
    std::vector<std::uint32_t> next_row(params_.numUnits, 0);
    lastObjective_ = 0;
    for (auto& [sid, alloc] : out) {
        (void)sid;
        for (UnitId u = 0; u < params_.numUnits; ++u) {
            if (alloc.shareRows[u] > 0) {
                alloc.rowBase[u] = next_row[u];
                next_row[u] += alloc.shareRows[u];
                NDP_ASSERT(next_row[u] <= params_.rowsPerUnit);
                lastObjective_ +=
                    static_cast<std::uint64_t>(alloc.shareRows[u])
                    * params_.rowBytes;
            }
        }
    }
    return out;
}

} // namespace ndpext
