/**
 * @file
 * The NDPExt stream cache controller (Section IV): the full hardware
 * datapath from an L1 miss to data return.
 *
 * Datapath for an access from the core on unit U to stream S:
 *   1. SLB lookup at U (TCAM range match; miss -> host remap-table refill).
 *      Non-stream addresses bypass the DRAM cache to extended memory.
 *   2. Element id -> granule id (1 kB block for affine, element for
 *      indirect); hashed within the serving replication group to a
 *      (unit, DRAM row, slot) location.
 *   3. Remote locations are reached over the intra/inter-stack network.
 *   4. Affine: SRAM affine-tag-array check, then a DRAM access on a hit.
 *      Indirect: a single DRAM access returns tag+data (direct-mapped,
 *      tag-with-data as in Alloy-style DRAM caches).
 *   5. Misses fetch the granule from CXL extended memory and install it;
 *      dirty victims are written back without stalling the requester.
 *   6. The first write to a read-only stream raises the host exception
 *      that collapses its replication groups (Section IV-B).
 *
 * Packet flow: the controller is the MemSink every NDP core sends its
 * Packets to. For each leg it calls the machine's NocModel
 * (transfer/transferToCxl/transferFromCxl), ExtendedMemory::access or
 * the unit's MemBackend itself, then advances pkt.ready to the leg's
 * completion and charges the matching LatencyBreakdown bucket. Every
 * access reaches the serving unit's own tag store and DRAM device,
 * whichever stack the requester sits on.
 *
 * Degraded mode (FaultInjector attached): a failed NDP unit loses its
 * DRAM-cache slice, tag stores and samplers -- an immediate capacity
 * loss. Accesses that resolve to a failed unit miss straight to extended
 * memory instead of wedging, replication groups containing the failed
 * unit collapse via the Section IV-B exception path, and the runtime is
 * expected to re-place around the unit out-of-epoch. ECC-detected DRAM
 * bit faults in cached data force a re-fetch from extended memory;
 * poisoned extended-memory reads escalate to the host (penalty cycles)
 * and are counted per occurrence.
 */

#ifndef NDPEXT_NDP_STREAM_CACHE_H
#define NDPEXT_NDP_STREAM_CACHE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/types.h"
#include "cxl/extended_memory.h"
#include "mem/mem_backend.h"
#include "ndp/remap_table.h"
#include "ndp/slb.h"
#include "ndp/tag_store.h"
#include "noc/noc_model.h"
#include "sampler/sampler.h"
#include "sim/breakdown.h"
#include "sim/packet.h"
#include "sim/stream_ledger.h"
#include "stream/stream_table.h"

namespace ndpext {

struct StreamCacheParams
{
    /** Affine cache block (Section IV-C; Fig. 9b sweeps this). */
    std::uint32_t affineBlockBytes = 1024;
    /**
     * Total DRAM-cache space usable by affine streams per unit, so the
     * affine tags fit in SRAM (paper: 16 MB of 256 MB). Scaled configs set
     * this to the same 1/16 fraction. 0 = unrestricted (Fig. 9c).
     */
    std::uint64_t affineCapBytesPerUnit = 16_MiB;
    /** ATA associativity. */
    std::uint32_t affineWays = 4;
    /** Indirect-cache associativity (1 = paper default; Fig. 9a). */
    std::uint32_t indirectWays = 1;
    /**
     * Way prediction for associative indirect caches (the CAMEO/Unison
     * alternative the paper mentions in Section IV-C): one DRAM access
     * reads the predicted (MRU) way; a mispredicted hit pays a second
     * access. Without prediction, an associative lookup reads all ways
     * of the set in one wider DRAM access.
     */
    bool indirectWayPrediction = false;
    /** SRAM affine tag array lookup latency. */
    Cycles ataCycles = 2;
    std::uint32_t slbEntries = 32;
    Cycles slbHitCycles = 2;
    /** Host round trip to refill an SLB entry. */
    Cycles slbMissCycles = 1000;
    /** Request-handling pipeline at the destination unit. */
    Cycles unitHandlerCycles = 1;
    /** Host exception on the first write to a read-only stream. */
    Cycles writeExceptionCycles = 2000;
    /** Control flit size for remote requests. */
    std::uint32_t reqBytes = 32;
    /** Data response size back to the requesting core. */
    std::uint32_t rspBytes = 64;
    /** SRAM lookup energies (CACTI-class structures), pJ per lookup. */
    double slbPjPerLookup = 5.0;
    double ataPjPerLookup = 10.0;
    /** Samplers per unit (Section V-A). */
    std::uint32_t samplersPerUnit = 4;
    SamplerParams sampler;
    RemapMode remapMode = RemapMode::ConsistentHash;

    /**
     * Cacheline-grained baseline mode (Section VI "Baseline designs"):
     * the adapted NUCA comparators (Jigsaw/Whirlpool/Nexus/static
     * interleaving) cache 64 B lines, keep per-line tags in DRAM, and
     * front them with a per-unit dual-granularity metadata cache
     * (Bi-Modal style: one metadata entry per 512 B block, 64 B data
     * migration). Every access performs a metadata lookup; metadata-cache
     * misses cost a (possibly remote) DRAM access.
     */
    bool cachelineMode = false;
    std::uint64_t metadataCacheBytes = 128_KiB;
    std::uint32_t metadataGranuleBytes = 512;
    std::uint32_t metadataCacheWays = 8;
    Cycles metadataHitCycles = 2;
};

/**
 * The distributed stream cache across all NDP units. Owns per-unit local
 * DRAM devices, SLBs, tag stores and sampler banks; calls the NoC and
 * extended-memory models directly.
 */
class StreamCacheController : public MemSink
{
  public:
    /**
     * @param unit_cache_bytes DRAM-cache capacity per unit.
     * @param unit_dram        Backend + timing of each unit's local
     *                         DRAM slice (a bare DramTimingParams selects
     *                         the default "banked" backend).
     */
    StreamCacheController(const StreamCacheParams& params,
                          StreamTable& streams, NocModel& noc,
                          ExtendedMemory& ext,
                          const MemBackendConfig& unit_dram,
                          std::uint64_t unit_cache_bytes,
                          std::uint64_t core_freq_mhz);

    StreamCacheController(const StreamCacheController&) = delete;
    StreamCacheController& operator=(const StreamCacheController&) = delete;

    /** Core entry point: dispatches accesses and writebacks. */
    void recvAtomic(Packet& pkt) final;

    /** Granule (caching unit) of a stream in bytes. */
    std::uint32_t granuleOf(const StreamConfig& cfg) const;

    /** Granule id of an element of a stream. */
    std::uint64_t granuleIdOf(const StreamConfig& cfg, ElemId elem) const;

    StreamRemapTable& remap() { return remap_; }
    const StreamRemapTable& remap() const { return remap_; }
    SamplerBank& samplerBank(UnitId unit);
    const SamplerBank& samplerBank(UnitId unit) const;
    std::uint32_t numUnits() const
    {
        return static_cast<std::uint32_t>(units_.size());
    }
    std::uint32_t rowsPerUnit() const { return rowsPerUnit_; }
    std::uint32_t rowBytes() const { return rowBytes_; }
    const StreamCacheParams& params() const { return params_; }
    const StreamTable& streams() const { return streams_; }

    /**
     * Install a new epoch configuration: per-stream allocations from the
     * configuration algorithm. Rebuilds tag stores, carrying surviving
     * rows under consistent hashing, and accounts invalidation traffic.
     */
    void applyConfiguration(
        const std::vector<std::pair<StreamId, StreamAlloc>>& allocs);

    /** Collapse a stream's replication to one group (write exception). */
    void collapseReplication(StreamId sid);

    /** Attach (or detach with nullptr) the fault injector. */
    void setFaultInjector(FaultInjector* fault);

    /**
     * A whole NDP unit failed: its cached contents and capacity are gone.
     * Tag stores are dropped, sampler state cleared, and replication
     * groups spanning the unit collapse. Until the runtime installs a
     * fresh configuration, accesses resolving to the unit redirect to
     * extended memory.
     */
    void onUnitFailed(UnitId unit);

    /**
     * Has `unit` been marked failed? The cache is the one owner of unit
     * health: the runtime and the configurator read it from here.
     */
    bool unitFailed(UnitId unit) const
    {
        return unit < unitFailed_.size() && unitFailed_[unit];
    }
    /** Per-unit failed flags (index = unit). */
    const std::vector<bool>& failedUnitMask() const { return unitFailed_; }
    std::uint64_t failedUnitCount() const;

    // --- statistics ---
    /** Sum of the ledger's rows, the none row included. */
    LatencyBreakdown breakdown() const;
    std::uint64_t cacheHits() const;
    std::uint64_t cacheMisses() const { return misses_; }
    std::uint64_t uncachedStreamAccesses() const { return uncached_; }
    /** Non-stream accesses: each bypasses the cache, so they are the
     *  none row's requests. */
    std::uint64_t
    bypasses() const
    {
        return ledger_.at(kNoStream).bd.requests;
    }
    std::uint64_t writeExceptions() const { return writeExceptions_; }
    /** Way-prediction accuracy (1.0 when prediction is off/unused). */
    double wayPredictionRate() const;
    std::uint64_t slbMissTotal() const;
    double missRate() const;
    /** Baseline metadata-cache hit rate (cachelineMode only). */
    double metadataHitRate() const;
    /** Rows invalidated / preserved across all reconfigurations. */
    std::uint64_t invalidatedRows() const { return invalidatedRows_; }
    std::uint64_t survivedRows() const { return survivedRows_; }
    /** Accesses redirected to extended memory because their cache
     *  location sat on a failed unit. */
    std::uint64_t failedUnitRedirects() const { return failedRedirects_; }
    /** ECC-detected DRAM bit faults that forced a re-fetch. */
    std::uint64_t dramFaultRefetches() const { return dramFaults_; }
    /** Poisoned extended-memory reads escalated to the host. */
    std::uint64_t poisonEscalations() const { return poisonEscalations_; }
    /** Per-stream hit/miss counts (0 for never-accessed sids). */
    std::uint64_t
    streamHits(StreamId sid) const
    {
        return ledger_.at(sid).hits;
    }
    std::uint64_t
    streamMisses(StreamId sid) const
    {
        return ledger_.at(sid).misses;
    }
    double dramCacheEnergyNj() const;
    double sramEnergyNj() const { return sramEnergyNj_; }

    /**
     * Per-stream cost attribution (kNoStream: the non-stream row).
     * Service latency is merged per owning sid on request completion,
     * so summed over every sid it equals breakdown() exactly (integer
     * cycles). SRAM and DRAM-cache energy shares are derived from
     * per-stream integer counters (lookups, bytes, activations) with
     * the same coefficients as the machine totals, so the shares sum to
     * sramEnergyNj()/dramCacheEnergyNj() up to float association order.
     */
    LatencyBreakdown
    streamBreakdown(StreamId sid) const
    {
        return ledger_.at(sid).bd;
    }
    double streamSramEnergyNj(StreamId sid) const;
    double streamDramCacheEnergyNj(StreamId sid) const;
    const MemBackend& unitDram(UnitId unit) const;

    /**
     * Declare the controller's counters under `prefix`: the latency
     * breakdown (`.lat`), hit/miss/traffic and degraded-mode counters,
     * the energies, every unit device under `.dram` (summed), and
     * per-stream hits/misses for the streams configured at the time of
     * the call.
     */
    void counters(Counters& out, const std::string& prefix) const;

    /**
     * Checkpoint pass (epoch barriers only). Tag stores are written in
     * (sid, unit) order, each as a presence flag and its contents; the
     * restored remap table determines every store's geometry. Totals
     * that equal a sum of per-stream rows are not stored. The
     * NoC/CXL/fault models are checkpointed by their owner (NdpSystem),
     * not here.
     */
    void checkpoint(ckpt::Archive& ar);

  private:
    struct UnitState
    {
        std::unique_ptr<MemBackend> dram;
        Slb slb;
        SamplerBank samplers;
        /** Only in cachelineMode: the baseline metadata cache. */
        std::unique_ptr<SetAssocCache> metaCache;

        UnitState(const MemBackendConfig& dram_cfg,
                  std::uint64_t core_freq_mhz,
                  const StreamCacheParams& params)
            : dram(createMemBackend(dram_cfg, core_freq_mhz)),
              slb(params.slbEntries, params.slbHitCycles,
                  params.slbMissCycles),
              samplers(params.samplersPerUnit, params.sampler)
        {
            if (params.cachelineMode) {
                // One 4 B metadata entry per metadataGranule block.
                const std::uint64_t entries =
                    params.metadataCacheBytes / 4;
                metaCache = std::make_unique<SetAssocCache>(
                    static_cast<std::uint32_t>(
                        entries / params.metadataCacheWays),
                    params.metadataCacheWays);
            }
        }
    };

    /**
     * One stream's ledger row: hits and misses (misses include the
     * stream's uncached accesses; hits alone sum to cacheHits()), its
     * service latency (core writebacks excluded), and the integer cost
     * counters its energy shares are derived from.
     */
    struct StreamRow
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        LatencyBreakdown bd;
        std::uint64_t slbLookups = 0;
        std::uint64_t ataLookups = 0;
        std::uint64_t dramBytes = 0;
        std::uint64_t dramActivations = 0;
    };

    /** The full L1-miss service path. */
    void handleAccess(Packet& pkt);
    void handleWriteback(Packet& pkt);

    /** Access path for stream data resident (or installable) in cache. */
    void accessCached(UnitId src, const StreamConfig& cfg, Packet& pkt);

    /**
     * Advance pkt.ready to a NoC transfer's arrival (the transfer
     * started at pkt.ready), charging its intra-stack hops to icnIntra
     * and the rest to icnInter.
     */
    void chargeNoc(Packet& pkt, const NocResult& res);

    /**
     * One extended-memory access at pkt.ready, charged to extMem; a
     * poisoned read escalates to the host and pays its penalty.
     */
    void chargeExt(Packet& pkt, Addr addr, std::uint32_t bytes, bool is_write);

    /** Round trip from `unit` to extended memory: request flit to the
     *  CXL portal, the access, and `bytes` back. */
    void extRoundTrip(UnitId unit, Packet& pkt, Addr addr,
                      std::uint32_t bytes, bool is_write);

    /** One-way write of `bytes` from `unit` through to extended memory. */
    void extWriteThrough(UnitId unit, Packet& pkt, Addr addr,
                         std::uint32_t bytes);

    /** Did this cache hit's data suffer an ECC-detected bit fault? */
    bool eccFaultOnHit(bool hit);

    /** CXL fetch + DRAM install of a granule at `loc`. */
    void fetchFill(Packet& pkt, UnitId unit, const StreamConfig& cfg,
                   std::uint64_t granule, const CacheLocation& loc);

    /** Non-blocking dirty-victim writeback to extended memory. */
    void writebackVictim(UnitId unit, const StreamConfig& cfg,
                         std::uint64_t victim_granule, Cycles t);

    /**
     * Baseline metadata lookup at the requesting unit: metadata cache
     * probe, on miss a (possibly remote) DRAM tag access.
     */
    void metadataLookup(UnitId unit, Packet& pkt);

    /** Granule id of an access (mode-dependent). */
    std::uint64_t granuleForPacket(const StreamConfig& cfg,
                                   const Packet& pkt) const;

    /** DRAM access at a resolved cache location, charged to `sid`. */
    DramResult dramAt(const CacheLocation& loc, std::uint32_t bytes,
                      bool is_write, Cycles t, StreamId sid);

    /** The serving unit's tag store for `sid` (built on first use). */
    TagStore& storeFor(UnitId unit, StreamId sid);

    /** The tag-store slots of `sid`, one per unit (grows the table). */
    std::span<std::optional<TagStore>> storesOf(StreamId sid);

    /** Tag-store associativity of a stream. */
    std::uint32_t waysOf(const StreamConfig& cfg) const;

    /**
     * The first write to a read-only stream (Section IV-B): the host
     * exception flips the stream writable and collapses its replicas, so
     * it is raised once per stream machine-wide.
     */
    void raiseWriteException(StreamId sid);

    Addr granuleAddr(const StreamConfig& cfg, std::uint64_t granule) const;
    std::uint32_t granuleFetchBytes(const StreamConfig& cfg) const;

    StreamCacheParams params_;
    StreamTable& streams_;
    NocModel& noc_;
    ExtendedMemory& ext_;
    std::uint32_t rowBytes_;
    std::uint32_t rowsPerUnit_;
    MemBackendConfig unitDramCfg_;
    StreamRemapTable remap_;
    std::vector<std::unique_ptr<UnitState>> units_;
    /**
     * Tag stores at sid * numUnits() + unit; an empty slot holds no
     * store. The table grows when a stream is added after construction.
     */
    std::vector<std::optional<TagStore>> stores_;
    /** Per-unit failed flag (degraded mode). */
    std::vector<bool> unitFailed_;
    FaultInjector* fault_ = nullptr;

    std::uint64_t misses_ = 0;
    std::uint64_t uncached_ = 0;
    std::uint64_t writeExceptions_ = 0;
    std::uint64_t wayPredictions_ = 0;
    std::uint64_t wayMispredictions_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t failedRedirects_ = 0;
    std::uint64_t dramFaults_ = 0;
    std::uint64_t poisonEscalations_ = 0;
    double sramEnergyNj_ = 0.0;
    /** Per-stream attribution. */
    StreamLedger<StreamRow> ledger_;

    /** Row accounting (reconfigurations, collapses). */
    std::uint64_t invalidatedRows_ = 0;
    std::uint64_t survivedRows_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NDP_STREAM_CACHE_H
