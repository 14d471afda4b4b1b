#include "runtime/ndp_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "runtime/static_config.h"
#include "telemetry/telemetry.h"

namespace ndpext {

namespace {

double
microsSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::micro>(dt).count();
}

/**
 * Default miss-rate curve for never-sampled streams. With no cache at all
 * every access misses; with any space, coarse-granule streams (affine
 * blocks) immediately capture their spatial locality, so the per-access
 * rate drops to ~1/elemsPerGranule and then declines linearly with the
 * captured fraction of the footprint.
 */
MissCurve
defaultRateCurve(const std::vector<std::uint64_t>& capacities,
                 std::uint64_t footprint, std::uint64_t elems_per_granule)
{
    const double epg =
        static_cast<double>(std::max<std::uint64_t>(1, elems_per_granule));
    std::vector<double> misses(capacities.size());
    for (std::size_t i = 0; i < capacities.size(); ++i) {
        const double frac = footprint == 0
            ? 0.0
            : std::min(1.0,
                       static_cast<double>(capacities[i])
                           / static_cast<double>(footprint));
        misses[i] = (1.0 - frac) / epg;
    }
    MissCurve curve(capacities, std::move(misses));
    curve.setZeroMisses(1.0);
    return curve;
}

/** Divide a curve's misses by `total` to get a per-access rate curve. */
MissCurve
toRateCurve(const MissCurve& curve, std::uint64_t total)
{
    std::vector<double> rates(curve.misses().size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        rates[i] = total == 0
            ? 0.0
            : curve.misses()[i] / static_cast<double>(total);
    }
    MissCurve rate(curve.capacities(), std::move(rates));
    rate.setZeroMisses(total == 0
                           ? 1.0
                           : curve.zeroMisses()
                               / static_cast<double>(total));
    return rate;
}

/** Multiply a rate curve back to absolute misses for `total` accesses. */
MissCurve
scaleRateCurve(const MissCurve& rate, std::uint64_t total)
{
    std::vector<double> misses(rate.misses().size());
    for (std::size_t i = 0; i < misses.size(); ++i) {
        misses[i] = rate.misses()[i] * static_cast<double>(total);
    }
    MissCurve scaled(rate.capacities(), std::move(misses));
    scaled.setZeroMisses(rate.zeroMisses() * static_cast<double>(total));
    return scaled;
}

void
fnv1a(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

} // namespace

std::uint64_t
demandFingerprint(const StreamDemand& d)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    fnv1a(h, d.sid);
    fnv1a(h, d.footprintBytes);
    fnv1a(h, d.readOnly ? 1 : 0);
    fnv1a(h, d.affine ? 1 : 0);
    for (const UnitId u : d.accUnits) {
        fnv1a(h, u);
    }
    for (const double m : d.curve.misses()) {
        fnv1a(h,
              static_cast<std::uint64_t>(
                  std::llround(std::log2(1.0 + std::max(0.0, m)) * 4.0)));
    }
    return h;
}

std::vector<std::pair<StreamId, StreamAlloc>>
StaticEqualConfigurator::configure(const std::vector<StreamDemand>& demands)
{
    (void)demands;
    return makeStaticEqualConfig(
        cache_.streams(), cache_.numUnits(), cache_.rowsPerUnit(),
        cache_.rowBytes(), cache_.params().affineCapBytesPerUnit);
}

NdpRuntime::NdpRuntime(const RuntimeParams& params,
                       StreamCacheController& cache,
                       std::unique_ptr<Configurator> configurator)
    : params_(params), cache_(cache),
      configurator_(std::move(configurator)),
      assigner_(cache.params().samplersPerUnit)
{
    NDP_ASSERT(configurator_ != nullptr);
}

void
NdpRuntime::assignSamplers(bool first_epoch,
                           const std::vector<StreamId>* delta)
{
    const std::uint32_t num_units = cache_.numUnits();
    const StreamTable& table = cache_.streams();
    const std::size_t num_streams = table.numStreams();

    // The per-unit stream-access bitvectors. With no profile yet (first
    // epoch), optimistically assume every unit may touch every stream so
    // the max-flow spreads coverage. Failed units have no working
    // samplers: give them nothing to cover.
    std::vector<std::vector<bool>> accessed(
        num_units, std::vector<bool>(num_streams, false));
    for (UnitId u = 0; u < num_units; ++u) {
        if (cache_.unitFailed(u)) {
            continue;
        }
        const SamplerBank& bank = cache_.samplerBank(u);
        for (std::size_t s = 0; s < num_streams; ++s) {
            accessed[u][s] =
                first_epoch || bank.accessed(static_cast<StreamId>(s));
        }
    }

    // Reserved-QoS streams claim sampler coverage first (their miss
    // curves feed carve-out sizing), then pending (previously
    // uncovered) streams, then the rest.
    std::vector<StreamId> order;
    std::set<StreamId> seen;
    for (const auto& [sid, q] : streamQos_) {
        if (q.reserved && sid < num_streams
            && seen.insert(sid).second) {
            order.push_back(sid);
        }
    }
    for (const StreamId sid : pendingUncovered_) {
        if (seen.insert(sid).second) {
            order.push_back(sid);
        }
    }
    for (std::size_t s = 0; s < num_streams; ++s) {
        const StreamId sid = static_cast<StreamId>(s);
        if (seen.insert(sid).second) {
            order.push_back(sid);
        }
    }

    // Warm-start only when enabled, past the first epoch, and with a
    // structurally compatible previous assignment to seed from.
    const bool warm = params_.solverWarmStart && !first_epoch
        && delta != nullptr
        && lastAssignment_.perUnit.size() == num_units;

    const auto t0 = std::chrono::steady_clock::now();
    SamplerAssignStats assign_stats;
    const SamplerAssignment assignment = warm
        ? assigner_.assignWarm(accessed, order, lastAssignment_, *delta,
                               &assign_stats)
        : assigner_.assign(accessed, order, &assign_stats);
    lastAssignMicros_ = microsSince(t0);
    solverWallMicros_ += lastAssignMicros_;
    if (warm) {
        solverWarmReused_ += assign_stats.seededPairs;
        solverDeltaStreams_ += delta->size();
    }
    covered_ += assignment.covered;
    pendingUncovered_ = assignment.uncovered;
    lastAssignment_ = assignment;

    for (UnitId u = 0; u < num_units; ++u) {
        std::vector<std::pair<StreamId, std::uint32_t>> slots;
        for (const StreamId sid : assignment.perUnit[u]) {
            slots.emplace_back(sid,
                               cache_.granuleOf(table.stream(sid)));
        }
        cache_.samplerBank(u).assign(slots);
    }
}

void
NdpRuntime::noteStreamChurn(const std::vector<StreamId>& sids)
{
    churnStreams_.insert(churnStreams_.end(), sids.begin(), sids.end());
}

std::vector<StreamId>
NdpRuntime::computeDelta(const std::vector<StreamDemand>& demands)
{
    std::map<StreamId, std::uint64_t> fresh;
    for (const StreamDemand& d : demands) {
        fresh[d.sid] = demandFingerprint(d);
    }

    std::set<StreamId> delta;
    for (const auto& [sid, fp] : fresh) {
        const auto it = lastFingerprints_.find(sid);
        if (it == lastFingerprints_.end() || it->second != fp) {
            delta.insert(sid); // arrived or changed beyond threshold
        }
    }
    for (const auto& [sid, fp] : lastFingerprints_) {
        (void)fp;
        if (fresh.count(sid) == 0) {
            delta.insert(sid); // departed
        }
    }
    for (const StreamId sid : churnStreams_) {
        delta.insert(sid);
    }
    churnStreams_.clear();
    lastFingerprints_ = std::move(fresh);
    return {delta.begin(), delta.end()};
}

void
NdpRuntime::noteDecision()
{
    ++solverDecisions_;
    solverIterations_ += configurator_->lastIterations();
    if (configurator_->lastBudgetHit()) {
        ++solverBudgetHits_;
    }
    solverWallMicros_ += lastConfigMicros_;
}

void
NdpRuntime::applyQos(StreamDemand& d) const
{
    const auto it = streamQos_.find(d.sid);
    if (it == streamQos_.end()) {
        return;
    }
    d.tenant = it->second.tenant;
    d.reserved = it->second.reserved;
    d.reservedRowsPerUnit = it->second.reservedRowsPerUnit;
}

std::vector<StreamDemand>
NdpRuntime::gatherDemands()
{
    const std::uint32_t num_units = cache_.numUnits();
    const StreamTable& table = cache_.streams();
    std::vector<StreamDemand> demands;

    for (const StreamConfig& cfg : table.all()) {
        StreamDemand d;
        d.sid = cfg.sid;
        d.granuleBytes = cache_.granuleOf(cfg);
        d.readOnly = cfg.readOnly;
        d.affine = cfg.type == StreamType::Affine;
        d.footprintBytes = cfg.size;
        applyQos(d);

        std::uint64_t total = 0;
        const MissCurveSampler* sampler = nullptr;
        for (UnitId u = 0; u < num_units; ++u) {
            if (cache_.unitFailed(u)) {
                continue; // sampler state died with the unit
            }
            const SamplerBank& bank = cache_.samplerBank(u);
            const std::uint64_t count = bank.accessCount(cfg.sid);
            if (count > 0) {
                d.accUnits.push_back(u);
                d.accCounts.push_back(count);
                total += count;
            }
            if (sampler == nullptr) {
                const MissCurveSampler* s = bank.samplerFor(cfg.sid);
                if (s != nullptr
                    && s->accesses() >= params_.minSamplerAccesses) {
                    sampler = s;
                }
            }
        }
        if (total == 0) {
            continue; // not accessed this epoch
        }

        // Footprint-proportional prior; blended with measurements below.
        // Sampling windows at simulation scale are orders of magnitude
        // shorter than the paper's 50M-cycle epochs, so sparse random
        // streams look reuse-free within one window. The optimistic
        // pointwise-min blend keeps sizing sane while letting confident
        // measurements (scans, hot sets) sharpen the curve.
        const MissCurve prior = scaleRateCurve(
            defaultRateCurve(
                MissCurveSampler(cache_.params().sampler).capacities(),
                d.footprintBytes, d.granuleBytes / cfg.elemSize),
            total);

        if (sampler != nullptr) {
            d.curve = MissCurve::pointwiseMin(sampler->curve(total), prior);
            // EWMA-smooth the per-access rate curve across epochs so one
            // noisy window cannot swing the whole allocation (and thrash
            // cached data through reconfigurations).
            MissCurve fresh = toRateCurve(d.curve, total);
            const auto prev = lastRateCurves_.find(cfg.sid);
            if (prev != lastRateCurves_.end()) {
                std::vector<double> mixed(fresh.misses().size());
                for (std::size_t i = 0; i < mixed.size(); ++i) {
                    mixed[i] = 0.5 * fresh.misses()[i]
                        + 0.5 * prev->second.misses()[i];
                }
                MissCurve smooth(fresh.capacities(), std::move(mixed));
                smooth.setZeroMisses(fresh.zeroMisses());
                fresh = std::move(smooth);
                d.curve = scaleRateCurve(fresh, total);
            }
            lastRateCurves_[cfg.sid] = std::move(fresh);
        } else {
            const auto it = lastRateCurves_.find(cfg.sid);
            if (it != lastRateCurves_.end()) {
                d.curve = scaleRateCurve(it->second, total);
            } else {
                d.curve = prior;
            }
        }
        demands.push_back(std::move(d));
    }
    return demands;
}

void
NdpRuntime::start()
{
    assignSamplers(/*first_epoch=*/true);

    // Initial configuration for every policy, from footprint-default
    // demands (every stream assumed accessed by every unit equally).
    // Adaptive policies refine it at each epoch end; without it the
    // entire first epoch would run uncached, which is negligible over
    // the paper's multi-billion-cycle runs but not at simulation scale.
    std::vector<StreamDemand> demands;
    const StreamTable& table = cache_.streams();
    for (const StreamConfig& cfg : table.all()) {
        StreamDemand d;
        d.sid = cfg.sid;
        d.granuleBytes = cache_.granuleOf(cfg);
        d.readOnly = cfg.readOnly;
        d.affine = cfg.type == StreamType::Affine;
        d.footprintBytes = cfg.size;
        applyQos(d);
        for (UnitId u = 0; u < cache_.numUnits(); ++u) {
            d.accUnits.push_back(u);
            d.accCounts.push_back(1);
        }
        const MissCurve rate = defaultRateCurve(
            MissCurveSampler(cache_.params().sampler).capacities(),
            d.footprintBytes, d.granuleBytes / cfg.elemSize);
        d.curve = scaleRateCurve(rate, 1000);
        demands.push_back(std::move(d));
    }
    if (!demands.empty()) {
        auto config = configurator_->configure(demands);
        noteDecision();
        cache_.applyConfiguration(config);
        configuredOnce_ = !configurator_->reconfigures();
        ++reconfigs_;
        recordDecision("initial", 0, demands, config, /*applied=*/true);
    }
}

void
NdpRuntime::recordDecision(
    const char* kind, Cycles now,
    const std::vector<StreamDemand>& demands,
    const std::vector<std::pair<StreamId, StreamAlloc>>& config,
    bool applied)
{
    if (telemetry_ == nullptr) {
        return;
    }
    DecisionRecord rec;
    rec.kind = kind;
    rec.epoch = epochIndex_;
    rec.cycles = now;
    rec.demands.reserve(demands.size());
    for (const StreamDemand& d : demands) {
        DecisionRecord::Demand out;
        out.sid = d.sid;
        out.footprintBytes = d.footprintBytes;
        out.granuleBytes = d.granuleBytes;
        out.readOnly = d.readOnly;
        out.affine = d.affine;
        out.accUnits = d.accUnits;
        out.accCounts = d.accCounts;
        out.curveCapacities = d.curve.capacities();
        out.curveMisses = d.curve.misses();
        rec.demands.push_back(std::move(out));
    }
    rec.samplerAssignment = lastAssignment_.perUnit;
    rec.uncoveredStreams = lastAssignment_.uncovered;
    rec.iterations = configurator_->lastIterations();
    rec.extends = configurator_->lastExtends();
    rec.merges = configurator_->lastMerges();
    rec.allocs.reserve(config.size());
    for (const auto& [sid, alloc] : config) {
        DecisionRecord::Alloc out;
        out.sid = sid;
        out.shareRows = alloc.shareRows;
        out.numGroups = alloc.numGroups;
        rec.allocs.push_back(std::move(out));
    }
    rec.applied = applied;
    telemetry_->decisions().add(rec);
}

void
NdpRuntime::stripFailedUnits(
    std::vector<std::pair<StreamId, StreamAlloc>>& config) const
{
    if (cache_.failedUnitCount() == 0) {
        return;
    }
    for (auto& [sid, alloc] : config) {
        (void)sid;
        for (UnitId u = 0; u < alloc.shareRows.size(); ++u) {
            if (cache_.unitFailed(u)) {
                alloc.shareRows[u] = 0;
            }
        }
    }
    // Streams whose every share sat on failed units lose their space
    // entirely; applyConfiguration treats absent streams as deallocated.
    config.erase(std::remove_if(config.begin(), config.end(),
                                [](const auto& e) {
                                    return e.second.empty();
                                }),
                 config.end());
}

void
NdpRuntime::emergencyReconfigure()
{
    const auto demands = gatherDemands();
    if (demands.empty()) {
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto config = configurator_->configure(demands);
    lastConfigMicros_ = microsSince(t0);
    noteDecision();
    stripFailedUnits(config);
    // No stability guard here: running degraded costs more than any row
    // invalidation this reconfiguration can cause.
    cache_.applyConfiguration(config);
    ++reconfigs_;
    ++emergencyReconfigs_;
    recordDecision("emergency", lastNow_, demands, config,
                   /*applied=*/true);
    if (telemetry_ != nullptr) {
        std::string args = "{\"streams\":";
        args += std::to_string(config.size());
        args += '}';
        telemetry_->trace().instant("runtime", "emergencyReconfig",
                                    TraceWriter::kPidRuntime, 0, lastNow_,
                                    args);
    }
}

void
NdpRuntime::onUnitFailures(const std::vector<UnitId>& units, Cycles now)
{
    lastNow_ = std::max(lastNow_, now);
    bool any_new = false;
    for (const UnitId unit : units) {
        NDP_ASSERT(unit < cache_.numUnits(), "unit=", unit);
        if (cache_.unitFailed(unit)) {
            continue;
        }
        any_new = true;
        // Degrade the hardware first so redirects are live immediately.
        cache_.onUnitFailed(unit);
        if (telemetry_ != nullptr) {
            std::string args = "{\"unit\":";
            args += std::to_string(unit);
            args += '}';
            telemetry_->trace().instant("fault", "unitFailure",
                                        TraceWriter::kPidRuntime, 0,
                                        lastNow_, args);
        }
    }
    if (!any_new) {
        return;
    }
    configurator_->setUnitHealth(cache_.failedUnitMask());

    // Simultaneous failures (e.g., a whole stack dying at once) are
    // re-placed with a single reconfiguration, not one per unit.
    if (configurator_->reconfigures()) {
        emergencyReconfigure();
    }
    // One-shot (static) policies cannot re-place: they stay degraded,
    // redirecting every access that hashes to the dead unit.
}

void
NdpRuntime::onEpochEnd(Cycles now)
{
    ++epochIndex_;
    lastNow_ = now;
    const bool adapt = configurator_->reconfigures()
        && (params_.method == RuntimeParams::Method::Full
            || (params_.method == RuntimeParams::Method::Partial
                && now <= params_.partialUntilCycles)
            || (params_.method == RuntimeParams::Method::Static
                && !configuredOnce_));

    std::vector<StreamDemand> demands;
    std::vector<std::pair<StreamId, StreamAlloc>> config;
    std::vector<StreamId> delta;
    bool have_delta = false;
    bool decided = false;
    bool applied = false;
    if (adapt) {
        demands = gatherDemands();
        if (!demands.empty()) {
            if (params_.solverWarmStart) {
                delta = computeDelta(demands);
                have_delta = true;
            }
            const auto t0 = std::chrono::steady_clock::now();
            config = configurator_->configure(demands);
            lastConfigMicros_ = microsSince(t0);
            noteDecision();
            stripFailedUnits(config);
            decided = true;
            // Skip reconfigurations that barely move the allocation:
            // applying them would invalidate cached rows for no benefit
            // (stability guard; DESIGN.md 4.1).
            std::uint64_t changed_rows = 0;
            std::uint64_t total_rows = 0;
            for (const auto& [sid, alloc] : config) {
                const StreamAlloc* cur = cache_.remap().alloc(sid);
                for (UnitId u = 0; u < cache_.numUnits(); ++u) {
                    const std::uint32_t now_rows = alloc.shareRows[u];
                    const std::uint32_t old_rows =
                        cur == nullptr ? 0 : cur->shareRows[u];
                    changed_rows += now_rows > old_rows
                        ? now_rows - old_rows
                        : old_rows - now_rows;
                    total_rows += now_rows;
                }
            }
            if (total_rows == 0
                || changed_rows * 10 >= total_rows) {
                cache_.applyConfiguration(config);
                ++reconfigs_;
                applied = true;
            } else {
                ++skippedReconfigs_;
            }
            configuredOnce_ = true;
        }
    }

    // Rotate sampler coverage for the next epoch, then clear counters.
    // Warm-start only with a fresh delta set (fingerprints need this
    // epoch's demands); epochs that skipped demand gathering fall back
    // to a cold solve.
    assignSamplers(/*first_epoch=*/false,
                   have_delta ? &delta : nullptr);
    for (UnitId u = 0; u < cache_.numUnits(); ++u) {
        cache_.samplerBank(u).newEpoch();
    }

    // Record after assignSamplers so the decision carries the *next*
    // epoch's sampler coverage alongside this epoch's configuration.
    if (decided) {
        recordDecision("epoch", now, demands, config, applied);
        if (telemetry_ != nullptr) {
            std::string args = "{\"streams\":";
            args += std::to_string(config.size());
            args += '}';
            telemetry_->trace().instant(
                "runtime", applied ? "reconfig" : "reconfigSkipped",
                TraceWriter::kPidRuntime, 0, now, args);
        }
    }
}

void
NdpRuntime::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("reconfigurations", [this] { return double(reconfigs_); });
    add("skippedReconfigurations",
        [this] { return double(skippedReconfigs_); });
    add("streamsCovered", [this] { return double(covered_); });
    add("degraded.emergencyReconfigs",
        [this] { return double(emergencyReconfigs_); });
    add("degraded.failedUnits", [this] { return double(failedUnits()); });
    add("solver.decisions", [this] { return double(solverDecisions_); });
    add("solver.iterations", [this] { return double(solverIterations_); });
    add("solver.budgetHits", [this] { return double(solverBudgetHits_); });
    add("solver.warmStartReused",
        [this] { return double(solverWarmReused_); });
    add("solver.deltaStreams", [this] { return double(solverDeltaStreams_); });
}

void
NdpRuntime::checkpoint(ckpt::Archive& ar)
{
    ar.section(0x0707);
    ar.map(lastRateCurves_, [&](StreamId& sid, MissCurve& curve) {
        ar.u32(sid);
        curve.checkpoint(ar);
    });
    ar.sids(pendingUncovered_);
    ar.u64(epochIndex_);
    ar.u64(lastNow_);
    ar.seq(lastAssignment_.perUnit,
           [&](std::vector<StreamId>& sids) { ar.sids(sids); });
    ar.sids(lastAssignment_.uncovered);
    ar.u64(lastAssignment_.covered);
    ar.u64(reconfigs_);
    ar.u64(emergencyReconfigs_);
    ar.u64(skippedReconfigs_);
    ar.u64(covered_);
    ar.b(configuredOnce_);
    // Incremental-solver state. Wall-clock micros intentionally do not
    // travel (advisory, host-dependent).
    ar.map(lastFingerprints_, [&](StreamId& sid, std::uint64_t& fp) {
        ar.u32(sid);
        ar.u64(fp);
    });
    ar.sids(churnStreams_);
    ar.u64(solverDecisions_);
    ar.u64(solverIterations_);
    ar.u64(solverBudgetHits_);
    ar.u64(solverWarmReused_);
    ar.u64(solverDeltaStreams_);
    if (ar.loading()) {
        // Unit health lives in the cache, restored before the runtime.
        configurator_->setUnitHealth(cache_.failedUnitMask());
    }
}

} // namespace ndpext
