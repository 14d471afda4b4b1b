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
#include "sim/resource.h"
#include "sim/stats.h"
#include "sim/stream_ledger.h"

namespace ndpext {

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
    /** Energy of transfers owned by stream `sid` (kNoStream: core
     *  writebacks, metadata, ...; 0 if never seen). Over every sid the
     *  shares cover energyNj(). */
    double
    streamEnergyNj(StreamId sid) const
    {
        return streamEnergyNj_.at(sid);
    }
    std::uint64_t transfers() const { return transfers_; }
    /** Bytes moved, weighted by hops of each link class (bandwidth). */
    std::uint64_t intraHopBytes() const { return intraHopBytes_; }
    std::uint64_t interHopBytes() const { return interHopBytes_; }

    /** Declare the NoC counters under `prefix`. */
    void counters(Counters& out, const std::string& prefix) const;

    /** Checkpoint pass (topology/routes are configuration). */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.expect(links_.size(), "NoC stack count mismatch");
        for (auto& dirs : links_) {
            ar.expect(dirs.size(), "NoC link count mismatch");
            for (BandwidthResource& link : dirs) {
                link.checkpoint(ar);
            }
        }
        ar.d(energyNj_);
        streamEnergyNj_.checkpoint(ar, [&](double& e) { ar.d(e); });
        ar.u64(transfers_);
        ar.u64(totalCycles_);
        ar.u64(intraHopBytes_);
        ar.u64(interHopBytes_);
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

    /** Add `nj` to the machine total and to `sid`'s ledger row. */
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
    /** Per-stream energy attribution. */
    StreamLedger<double> streamEnergyNj_;
    std::uint64_t transfers_ = 0;
    /** Sum over transfers of (arrival - request) cycles. */
    Cycles totalCycles_ = 0;
    std::uint64_t intraHopBytes_ = 0;
    std::uint64_t interHopBytes_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NOC_NOC_MODEL_H
