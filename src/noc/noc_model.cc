#include "noc/noc_model.h"

#include <algorithm>

#include "common/logging.h"

namespace ndpext {

namespace {

enum Direction
{
    kEast = 0,
    kWest = 1,
    kNorth = 2,
    kSouth = 3
};

} // namespace

NocModel::NocModel(const MeshTopology& topo, const NocParams& params)
    : topo_(topo), params_(params),
      links_(topo.numStacks(),
             std::vector<BandwidthResource>(
                 4, BandwidthResource(params.interLinkBytesPerCycle)))
{
    const std::uint32_t n = topo_.numUnits();
    routeCache_.resize(static_cast<std::size_t>(n) * n);
    for (UnitId src = 0; src < n; ++src) {
        for (UnitId dst = 0; dst < n; ++dst) {
            routeCache_[static_cast<std::size_t>(src) * n + dst] =
                topo_.route(src, dst);
        }
    }
    portalHops_.resize(n);
    for (UnitId u = 0; u < n; ++u) {
        portalHops_[u] = topo_.hopsToPortal(u);
    }
}

Cycles
NocModel::reserveHop(StackId stack, int dir, std::uint32_t bytes, Cycles at)
{
    BandwidthResource& link = links_[stack][static_cast<std::size_t>(dir)];
    const Cycles service = link.serviceCycles(bytes);
    return link.reserveFor(service, at) + params_.interHopCycles + service;
}

Cycles
NocModel::routeStacks(StackId src, StackId dst, std::uint32_t bytes,
                      Cycles start, std::uint32_t* inter_hops)
{
    // Dimension-ordered (XY) routing over the stack mesh.
    Coord cur = topo_.stackCoord(src);
    const Coord end = topo_.stackCoord(dst);
    Cycles t = start;
    std::uint32_t hops = 0;
    StackId at = src;
    while (cur.x != end.x) {
        const int dir = cur.x < end.x ? kEast : kWest;
        t = reserveHop(at, dir, bytes, t);
        cur.x = cur.x < end.x ? cur.x + 1 : cur.x - 1;
        at = cur.y * topo_.stacksX() + cur.x;
        ++hops;
    }
    while (cur.y != end.y) {
        const int dir = cur.y < end.y ? kSouth : kNorth;
        t = reserveHop(at, dir, bytes, t);
        cur.y = cur.y < end.y ? cur.y + 1 : cur.y - 1;
        at = cur.y * topo_.stacksX() + cur.x;
        ++hops;
    }
    if (inter_hops != nullptr) {
        *inter_hops = hops;
    }
    return t;
}

void
NocModel::chargeEnergy(StreamId sid, double nj)
{
    energyNj_ += nj;
    if (sid == kNoStream) {
        noStreamEnergyNj_ += nj;
    } else {
        if (streamEnergyNj_.size() <= sid) {
            streamEnergyNj_.resize(sid + 1, 0.0);
        }
        streamEnergyNj_[sid] += nj;
    }
}

NocResult
NocModel::transfer(UnitId src, UnitId dst, std::uint32_t bytes, Cycles now,
                   StreamId sid)
{
    NocResult res;
    if (src == dst) {
        res.done = now;
        return res;
    }
    const auto& hops = routeFor(src, dst);
    Cycles t = now + static_cast<Cycles>(hops.intra) * params_.intraHopCycles;
    if (hops.inter > 0) {
        std::uint32_t inter = 0;
        t = routeStacks(topo_.stackOf(src), topo_.stackOf(dst), bytes, t,
                        &inter);
        NDP_ASSERT(inter == hops.inter);
    }
    res.done = t;
    res.intraHops = hops.intra;
    res.interHops = hops.inter;

    const double bits = static_cast<double>(bytes) * 8.0;
    chargeEnergy(sid,
                 bits * params_.intraPjPerBit * 1e-3
                         * static_cast<double>(hops.intra)
                     + bits * params_.interPjPerBit * 1e-3
                         * static_cast<double>(hops.inter));
    intraHopBytes_ += static_cast<std::uint64_t>(bytes) * hops.intra;
    interHopBytes_ += static_cast<std::uint64_t>(bytes) * hops.inter;
    ++transfers_;
    totalCycles_ += res.done - now;
    return res;
}

NocResult
NocModel::transferUnitPortal(UnitId unit, StackId portal_stack,
                             std::uint32_t bytes, Cycles now, bool to_portal,
                             StreamId sid)
{
    NocResult res;
    const StackId ustack = topo_.stackOf(unit);
    const std::uint32_t intra = portalHops_[unit];
    Cycles t = now + static_cast<Cycles>(intra) * params_.intraHopCycles;
    std::uint32_t inter = 0;
    if (ustack != portal_stack) {
        if (to_portal) {
            t = routeStacks(ustack, portal_stack, bytes, t, &inter);
        } else {
            t = routeStacks(portal_stack, ustack, bytes, now, &inter);
            t += static_cast<Cycles>(intra) * params_.intraHopCycles;
        }
    }
    res.done = t;
    res.intraHops = intra;
    res.interHops = inter;

    const double bits = static_cast<double>(bytes) * 8.0;
    chargeEnergy(sid,
                 bits * params_.intraPjPerBit * 1e-3
                         * static_cast<double>(intra)
                     + bits * params_.interPjPerBit * 1e-3
                         * static_cast<double>(inter));
    intraHopBytes_ += static_cast<std::uint64_t>(bytes) * intra;
    interHopBytes_ += static_cast<std::uint64_t>(bytes) * inter;
    ++transfers_;
    totalCycles_ += res.done - now;
    return res;
}

NocResult
NocModel::transferToCxl(UnitId src, std::uint32_t bytes, Cycles now,
                        StreamId sid)
{
    return transferUnitPortal(src, topo_.cxlStack(), bytes, now, true, sid);
}

NocResult
NocModel::transferFromCxl(UnitId dst, std::uint32_t bytes, Cycles now,
                          StreamId sid)
{
    return transferUnitPortal(dst, topo_.cxlStack(), bytes, now, false,
                              sid);
}

double
NocModel::attenuation(UnitId from, UnitId to, Cycles dram_latency) const
{
    const Cycles icn = pureLatency(from, to);
    return static_cast<double>(dram_latency)
        / static_cast<double>(dram_latency + icn);
}

void
NocModel::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("transfers", [this] { return double(transfers_); });
    add("totalCycles", [this] { return double(totalCycles_); });
    add("energyNj", [this] { return energyNj_; });
    add("linkReservations", [this] {
        double reservations = 0.0;
        for (const auto& stack_links : links_) {
            for (const auto& link : stack_links) {
                reservations += double(link.reservations());
            }
        }
        return reservations;
    });
    add("linkQueueCycles", [this] {
        double queue_cycles = 0.0;
        for (const auto& stack_links : links_) {
            for (const auto& link : stack_links) {
                queue_cycles += double(link.totalQueueCycles());
            }
        }
        return queue_cycles;
    });
    add("intraHopBytes", [this] { return double(intraHopBytes_); });
    add("interHopBytes", [this] { return double(interHopBytes_); });
}

} // namespace ndpext
