#include "serving/serving_workload.h"

#include <algorithm>

#include "common/logging.h"

namespace ndpext {

namespace {

/** Sub-generators must outlive any horizon: effectively unbounded. */
constexpr std::uint64_t kUnboundedAccesses = 1ULL << 62;

/** Checkpoint section tag for serving-generator extra state. */
constexpr std::uint32_t kServingGenTag = 0x5E81;

} // namespace

void
mergeHistogram(Histogram* dst, const Histogram& src)
{
    if (src.count() == 0) {
        return;
    }
    std::vector<std::uint64_t> bins = dst->bins();
    NDP_ASSERT(bins.size() == src.bins().size(),
               "histogram merge with mismatched bucket configs");
    for (std::size_t i = 0; i < bins.size(); ++i) {
        bins[i] += src.bins()[i];
    }
    const bool wasEmpty = dst->count() == 0;
    dst->restore(std::move(bins), dst->overflow() + src.overflow(),
                 dst->count() + src.count(), dst->sum() + src.sum(),
                 wasEmpty ? src.minValue()
                          : std::min(dst->minValue(), src.minValue()),
                 wasEmpty ? src.maxValue()
                          : std::max(dst->maxValue(), src.maxValue()));
}

ServingWorkload::ServingWorkload(ServingConfig cfg, Cycles epoch_cycles)
    : cfg_(std::move(cfg)), epochCycles_(epoch_cycles)
{
    NDP_ASSERT(cfg_.enabled(), "ServingWorkload needs at least one tenant");
    NDP_ASSERT(epochCycles_ > 0);
    for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
        if (cfg_.tenants[i].name.empty()) {
            cfg_.tenants[i].name = "t" + std::to_string(i);
        }
    }
}

void
ServingWorkload::doPrepare()
{
    const std::uint64_t evenShare = std::max<std::uint64_t>(
        p_.footprintBytes / cfg_.tenants.size(), 1_MiB);
    StreamId sidOff = 0;
    Addr addrOff = 0;
    for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
        const TenantSpec& t = cfg_.tenants[i];
        WorkloadParams sp;
        sp.numCores = p_.numCores;
        sp.footprintBytes =
            t.footprintBytes != 0 ? t.footprintBytes : evenShare;
        sp.accessesPerCore = kUnboundedAccesses;
        sp.seed = mix64(p_.seed ^ (0x5E711234ULL + i));

        std::unique_ptr<Workload> sub = makeWorkload(t.workload);
        sub->prepare(sp);
        sub->rebaseStreams(sidOff, addrOff);
        for (const StreamConfig& cfg : sub->streamConfigs()) {
            StreamConfig copy = cfg;
            copy.name = t.name + "." + copy.name;
            configs_.push_back(std::move(copy));
            owners_.push_back(static_cast<std::uint32_t>(i));
        }
        sidOff = static_cast<StreamId>(configs_.size());
        addrOff = sub->addressSpaceEnd();
        subs_.push_back(std::move(sub));

        // Churn windows are epoch-aligned and capped by the horizon.
        const Cycles cap = cfg_.horizonCycles;
        const auto toCycles = [&](std::uint64_t epoch) {
            if (epoch > cap / epochCycles_) {
                return cap;
            }
            return std::min<Cycles>(cap, epoch * epochCycles_);
        };
        windows_.emplace_back(toCycles(t.arriveEpoch),
                              toCycles(t.departEpoch));
    }
}

std::unique_ptr<AccessGenerator>
ServingWorkload::makeGenerator(CoreId core) const
{
    return std::make_unique<ServingGenerator>(*this, core);
}

void
ServingWorkload::hashExtra(ckpt::Writer& w) const
{
    hashServingConfig(cfg_, w);
    w.u64(epochCycles_);
}

ServingGenerator::ServingGenerator(const ServingWorkload& w, CoreId core)
    : workload_(w)
{
    const std::vector<TenantSpec>& specs = w.serving().tenants;
    tenants_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const TenantSpec& spec = specs[i];
        ArrivalParams ap;
        ap.periodCycles = spec.periodCycles;
        ap.tunables = spec.arrivalTunables;
        const std::uint64_t seed =
            mix64(mix64(w.params().seed ^ (0xA2210000ULL + i)) + core);
        tenants_.emplace_back(w.sub(i).makeGenerator(core),
                              createArrivalProcess(spec.arrival, ap, seed),
                              spec.sloCycles);
        TenantRt& rt = tenants_.back();
        rt.clock = w.activeStart(i);
        drawNext(rt);
    }
}

ServingGenerator::~ServingGenerator() = default;

void
ServingGenerator::drawNext(TenantRt& t)
{
    if (t.exhausted) {
        return;
    }
    const std::size_t idx = static_cast<std::size_t>(&t - tenants_.data());
    t.clock += t.arrival->nextGap();
    if (t.clock >= workload_.activeEnd(idx)) {
        t.exhausted = true;
        return;
    }
    t.nextArrival = t.clock;
    ++t.stats.arrivals;
}

void
ServingGenerator::pump(Cycles now)
{
    for (TenantRt& t : tenants_) {
        while (!t.exhausted && t.nextArrival <= now) {
            t.queue.push_back(t.nextArrival);
            drawNext(t);
        }
    }
}

bool
ServingGenerator::startNextRequest(Cycles now)
{
    pump(now);

    // Arrived requests first: reserved class before best-effort, FCFS
    // by arrival time within a class (ties to the lowest tenant index).
    const std::vector<TenantSpec>& specs = workload_.serving().tenants;
    std::size_t best = tenants_.size();
    for (const bool wantReserved : {true, false}) {
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            if (specs[i].reserved != wantReserved
                || tenants_[i].queue.empty()) {
                continue;
            }
            if (best == tenants_.size()
                || tenants_[i].queue.front()
                    < tenants_[best].queue.front()) {
                best = i;
            }
        }
        if (best != tenants_.size()) {
            break;
        }
    }

    Cycles arrival = 0;
    if (best != tenants_.size()) {
        arrival = tenants_[best].queue.front();
        tenants_[best].queue.pop_front();
    } else {
        // Core is idle: jump to the earliest future arrival (reserved
        // wins exact-time ties, then the lowest tenant index).
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            if (tenants_[i].exhausted) {
                continue;
            }
            if (best == tenants_.size()
                || tenants_[i].nextArrival
                    < tenants_[best].nextArrival
                || (tenants_[i].nextArrival
                        == tenants_[best].nextArrival
                    && specs[i].reserved && !specs[best].reserved)) {
                best = i;
            }
        }
        if (best == tenants_.size()) {
            return false; // fully drained: the run is over
        }
        arrival = tenants_[best].nextArrival;
        drawNext(tenants_[best]);
    }

    curTenant_ = static_cast<std::uint32_t>(best);
    curArrival_ = arrival;
    curLeft_ = specs[best].requestAccesses;
    curFirst_ = true;
    ++tenants_[best].stats.started;
    return true;
}

bool
ServingGenerator::next(Access& out)
{
    return next(out, lastNow_);
}

bool
ServingGenerator::next(Access& out, Cycles now)
{
    lastNow_ = now;
    if (curLeft_ == 0 && !startNextRequest(now)) {
        return false;
    }
    TenantRt& t = tenants_[curTenant_];
    const bool ok = t.sub->next(out);
    NDP_ASSERT(ok, "serving sub-generator exhausted");
    ++t.subPulled;
    out.notBefore = curFirst_ ? curArrival_ : 0;
    out.tenant = curTenant_;
    curFirst_ = false;
    --curLeft_;
    out.endOfRequest = curLeft_ == 0;
    if (out.endOfRequest) {
        inflight_.emplace_back(curTenant_, curArrival_);
    }
    return true;
}

void
ServingGenerator::onRetire(const Access& acc, Cycles done)
{
    (void)acc;
    NDP_ASSERT(!inflight_.empty(), "retire without an in-flight request");
    const auto [tenant, arrival] = inflight_.front();
    inflight_.pop_front();
    TenantRt& t = tenants_[tenant];
    const Cycles lat = done > arrival ? done - arrival : 0;
    t.stats.latency.add(static_cast<double>(lat));
    ++t.stats.retired;
    if (lat > workload_.serving().tenants[tenant].sloCycles) {
        ++t.stats.sloViolations;
    }
}

void
ServingGenerator::checkpointExtra(ckpt::Archive& ar)
{
    ar.section(kServingGenTag);
    ar.expect(tenants_.size(), "serving tenant count mismatch");
    for (TenantRt& t : tenants_) {
        t.arrival->checkpoint(ar);
        ar.u64(t.clock);
        ar.u64(t.nextArrival);
        ar.b(t.exhausted);
        ar.u64(t.subPulled);
        ar.seq(t.queue, [&](Cycles& arrival) { ar.u64(arrival); });
        ar.u64(t.stats.arrivals);
        ar.u64(t.stats.started);
        ar.u64(t.stats.retired);
        ar.u64(t.stats.sloViolations);
        ar.hist(t.stats.latency);
    }
    ar.u32(curTenant_);
    ar.u64(curArrival_);
    ar.u32(curLeft_);
    ar.b(curFirst_);
    ar.seq(inflight_, [&](auto& req) {
        ar.u32(req.first);
        ar.u64(req.second);
    });
    ar.u64(lastNow_);

    if (!ar.loading()) {
        return;
    }
    // The sub-generators' state is a pure function of how many accesses
    // they produced; fast-forward them by replay (the same mechanism
    // NdpSystem uses for non-serving generators).
    for (TenantRt& t : tenants_) {
        Access dummy;
        for (std::uint64_t i = 0; i < t.subPulled; ++i) {
            const bool ok = t.sub->next(dummy);
            NDP_ASSERT(ok, "sub-generator exhausted during resume replay");
        }
    }
}

} // namespace ndpext
