/**
 * @file
 * Interconnect timing/energy model over a MeshTopology.
 *
 * Table II parameters:
 *   intra-stack: 128-bit links, 1.5 ns/hop (3 core cycles @2 GHz), 0.4 pJ/bit
 *   inter-stack: 32 GB/s per direction, 10 ns/hop (20 cycles), 4 pJ/bit
 *
 * Intra-stack links are wide and plentiful, so they contribute latency and
 * energy only. Inter-stack SerDes links are the scarce resource the paper's
 * placement optimizes: each stack's egress toward each mesh direction is a
 * BandwidthResource, so hot stack-to-stack traffic queues.
 */

#ifndef NDPEXT_NOC_NOC_MODEL_H
#define NDPEXT_NOC_NOC_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "noc/mesh.h"
#include "sim/packet.h"
#include "sim/resource.h"
#include "sim/stats.h"

namespace ndpext {

class MetricRegistry; // telemetry/metric_registry.h

struct NocParams
{
    /** Per-hop latency of the intra-stack mesh, core cycles. */
    Cycles intraHopCycles = 3;
    /** Per-hop latency of inter-stack links, core cycles. */
    Cycles interHopCycles = 20;
    /** Inter-stack link bandwidth per direction, bytes per core cycle. */
    double interLinkBytesPerCycle = 16.0; // 32 GB/s @ 2 GHz
    /** Intra-stack hop energy, pJ per bit. */
    double intraPjPerBit = 0.4;
    /** Inter-stack hop energy, pJ per bit. */
    double interPjPerBit = 4.0;
};

/** Outcome of one network transfer. */
struct NocResult
{
    /** Arrival time of the payload at the destination. */
    Cycles done = 0;
    std::uint32_t intraHops = 0;
    std::uint32_t interHops = 0;
};

class NocModel
{
  public:
    NocModel(const MeshTopology& topo, const NocParams& params);

    NocModel(const NocModel&) = delete;
    NocModel& operator=(const NocModel&) = delete;

    /**
     * Packet protocol: move pkt.bytes along the leg pkt.hopSrc ->
     * pkt.hopDst (Packet::kCxlEndpoint addresses the CXL portal),
     * advancing pkt.ready and charging the elapsed cycles to the packet's
     * icnIntra/icnInter buckets.
     */
    void recvAtomic(Packet& pkt);

    /**
     * Move `bytes` from unit `src` to unit `dst` starting at `now`;
     * reserves inter-stack links along the XY stack route. `sid` owns the
     * transfer for energy attribution (kNoStream = unattributed).
     */
    NocResult transfer(UnitId src, UnitId dst, std::uint32_t bytes,
                       Cycles now, StreamId sid = kNoStream);

    /**
     * Transfer between a unit and the CXL attach point (the portal of the
     * CXL stack); used on every extended-memory access.
     */
    NocResult transferToCxl(UnitId src, std::uint32_t bytes, Cycles now,
                            StreamId sid = kNoStream);
    NocResult transferFromCxl(UnitId dst, std::uint32_t bytes, Cycles now,
                              StreamId sid = kNoStream);

    /** Zero-load latency between two units (no reservation). */
    Cycles
    pureLatency(UnitId src, UnitId dst) const
    {
        const auto& hops = routeFor(src, dst);
        return static_cast<Cycles>(hops.intra) * params_.intraHopCycles
            + static_cast<Cycles>(hops.inter) * params_.interHopCycles;
    }

    /** Attenuation factor k = dramLat / (dramLat + icnLat) (Section V-C). */
    double attenuation(UnitId from, UnitId to, Cycles dram_latency) const;

    const MeshTopology& topology() const { return topo_; }
    const NocParams& params() const { return params_; }

    double energyNj() const { return energyNj_; }
    /** Energy of transfers owned by stream `sid` (0 if never seen). */
    double
    streamEnergyNj(StreamId sid) const
    {
        return sid < streamEnergyNj_.size() ? streamEnergyNj_[sid] : 0.0;
    }
    /** Energy of kNoStream transfers (core writebacks, metadata, ...);
     *  together with the per-stream shares this covers energyNj(). */
    double unattributedEnergyNj() const { return noStreamEnergyNj_; }
    std::uint64_t transfers() const { return transfers_; }
    /** Sum over transfers of (arrival - request) cycles. */
    Cycles totalTransferCycles() const { return totalCycles_; }
    /** Bytes moved, weighted by hops of each link class (bandwidth). */
    std::uint64_t intraHopBytes() const { return intraHopBytes_; }
    std::uint64_t interHopBytes() const { return interHopBytes_; }

    void report(StatGroup& stats, const std::string& prefix) const;
    void reset();

    /** Registers "noc.*" series (shard clones sum into one series). */
    void registerMetrics(MetricRegistry& registry);

    /** Checkpoint hooks (topology/routes are configuration). */
    void
    serialize(ckpt::Writer& w) const
    {
        w.u64(links_.size());
        for (const auto& dirs : links_) {
            w.u64(dirs.size());
            for (const BandwidthResource& link : dirs) {
                link.serialize(w);
            }
        }
        w.d(energyNj_);
        w.vecD(streamEnergyNj_);
        w.d(noStreamEnergyNj_);
        w.u64(transfers_);
        w.u64(totalCycles_);
        w.u64(intraHopBytes_);
        w.u64(interHopBytes_);
    }

    void
    deserialize(ckpt::Reader& r)
    {
        const std::uint64_t stacks = r.u64();
        NDP_ASSERT(stacks == links_.size(), "NoC stack count mismatch");
        for (auto& dirs : links_) {
            const std::uint64_t n = r.u64();
            NDP_ASSERT(n == dirs.size(), "NoC link count mismatch");
            for (BandwidthResource& link : dirs) {
                link.deserialize(r);
            }
        }
        energyNj_ = r.d();
        streamEnergyNj_ = r.vecD();
        noStreamEnergyNj_ = r.d();
        transfers_ = r.u64();
        totalCycles_ = r.u64();
        intraHopBytes_ = r.u64();
        interHopBytes_ = r.u64();
    }

  private:
    /** Reserve the egress link of `stack` toward direction `dir`. */
    Cycles reserveHop(StackId stack, int dir, std::uint32_t bytes,
                      Cycles at);

    /** Walk the XY stack route reserving each inter-stack hop. */
    Cycles routeStacks(StackId src, StackId dst, std::uint32_t bytes,
                       Cycles start, std::uint32_t* inter_hops);

    NocResult transferUnitPortal(UnitId unit, StackId portal_stack,
                                 std::uint32_t bytes, Cycles now,
                                 bool to_portal, StreamId sid);

    /** Add `nj` to the machine total and to `sid`'s attribution slot. */
    void chargeEnergy(StreamId sid, double nj);

    /** Cached hop counts of the (static) route src -> dst. */
    const MeshTopology::Hops&
    routeFor(UnitId src, UnitId dst) const
    {
        return routeCache_[static_cast<std::size_t>(src) * topo_.numUnits()
                           + dst];
    }

    MeshTopology topo_;
    NocParams params_;
    /** [stack][direction 0..3] egress link resources (E,W,N,S). */
    std::vector<std::vector<BandwidthResource>> links_;
    /**
     * The topology never changes after construction, so hop counts for
     * every (src, dst) pair and every unit's portal distance are
     * precomputed here; route() walked coordinates on every transfer
     * and showed up in the engine hot path.
     */
    std::vector<MeshTopology::Hops> routeCache_;
    std::vector<std::uint32_t> portalHops_;

    double energyNj_ = 0.0;
    /** Per-stream energy attribution (resize-on-demand by sid). */
    std::vector<double> streamEnergyNj_;
    double noStreamEnergyNj_ = 0.0;
    std::uint64_t transfers_ = 0;
    Cycles totalCycles_ = 0;
    std::uint64_t intraHopBytes_ = 0;
    std::uint64_t interHopBytes_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NOC_NOC_MODEL_H
