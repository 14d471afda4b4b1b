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
 * Packets to; internally the packet is handed straight to the shard's
 * NocModel and ExtendedMemory, each leg advancing pkt.ready and
 * charging the matching LatencyBreakdown bucket.
 *
 * Sharded execution (enableSharding): units are partitioned by stack
 * into shards that run in parallel between epoch barriers. A shard owns
 * its units' SLBs, samplers, tag stores, DRAM banks and counters
 * outright; for traffic that *serves* on another shard's unit, the
 * shard uses private proxy TagStore/MemBackend instances derived from
 * the shared (read-only between barriers) remap geometry, and its own
 * NoC/CXL models with a fair share of the global bandwidth. Cross-
 * cutting side effects -- the write-to-read-only exception's
 * markWritten + replica collapse -- are deferred to the next barrier
 * (applyDeferredWriteExceptions) and applied in sorted-stream order, so
 * results are a pure function of the shard decomposition, never of the
 * thread count. See DESIGN.md section 5.
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
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/types.h"
#include "cpu/core.h"
#include "cxl/extended_memory.h"
#include "mem/mem_backend.h"
#include "ndp/remap_table.h"
#include "ndp/slb.h"
#include "ndp/tag_store.h"
#include "noc/noc_model.h"
#include "sampler/sampler.h"
#include "sim/breakdown.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
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

    /** One shard's private backing resources (see enableSharding). */
    struct ShardResources
    {
        NocModel* noc = nullptr;
        ExtendedMemory* ext = nullptr;
        /** Optional per-shard fault injector (derived seed). */
        FaultInjector* fault = nullptr;
    };

    /**
     * Switch to sharded execution: one shard per stack, each using
     * `resources[s]` for its NoC/CXL traffic and deferring write-to-
     * read-only side effects to applyDeferredWriteExceptions(). Must be
     * called before the first access; `resources.size()` must equal the
     * topology's stack count.
     */
    void enableSharding(const std::vector<ShardResources>& resources);

    /** True once enableSharding() has been called. */
    bool sharded() const { return sharded_; }

    /**
     * Barrier-side: apply the markWritten + replica-collapse side effects
     * of write exceptions raised during the last parallel interval, in
     * sorted stream order (thread-count independent). No-op when not
     * sharded (side effects were applied inline).
     */
    void applyDeferredWriteExceptions();

    /** Core entry point: dispatches accesses and writebacks. */
    void recvAtomic(Packet& pkt) final;

    /** Convenience wrappers building a Packet (tests, host-style use). */
    MemResult access(CoreId core, const Access& access, Cycles now);
    void writeback(CoreId core, Addr line_addr, Cycles now);

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
     * Barrier-side only in sharded mode.
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
     * extended memory. Barrier-side only in sharded mode.
     */
    void onUnitFailed(UnitId unit);

    /** Has `unit` been marked failed? */
    bool unitFailed(UnitId unit) const
    {
        return unit < unitFailed_.size() && unitFailed_[unit];
    }

    // --- statistics (aggregated across shards) ---
    LatencyBreakdown breakdown() const;
    std::uint64_t cacheHits() const;
    std::uint64_t cacheMisses() const;
    std::uint64_t uncachedStreamAccesses() const;
    std::uint64_t bypasses() const;
    std::uint64_t writeExceptions() const;
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
    std::uint64_t failedUnitRedirects() const;
    /** ECC-detected DRAM bit faults that forced a re-fetch. */
    std::uint64_t dramFaultRefetches() const;
    /** Poisoned extended-memory reads escalated to the host. */
    std::uint64_t poisonEscalations() const;
    /** Per-stream hit/miss counts (0 for never-accessed sids). */
    std::uint64_t streamHits(StreamId sid) const;
    std::uint64_t streamMisses(StreamId sid) const;
    double dramCacheEnergyNj() const;
    double sramEnergyNj() const;

    /**
     * Per-stream cost attribution. Service latency is merged per owning
     * sid on request completion, so summed over every stream plus the
     * non-stream slot it equals breakdown() exactly (integer cycles).
     * SRAM and DRAM-cache energy shares are derived from per-stream
     * integer counters (lookups, bytes, activations) with the same
     * coefficients as the machine totals, so the shares sum to
     * sramEnergyNj()/dramCacheEnergyNj() up to float association order.
     */
    LatencyBreakdown streamBreakdown(StreamId sid) const;
    LatencyBreakdown nonStreamBreakdown() const;
    double streamSramEnergyNj(StreamId sid) const;
    double nonStreamSramEnergyNj() const;
    double streamDramCacheEnergyNj(StreamId sid) const;
    double nonStreamDramCacheEnergyNj() const;
    const MemBackend& unitDram(UnitId unit) const;

    /** Packet-pool telemetry summed over shard contexts. */
    std::uint64_t packetPoolHighWater() const;
    std::uint64_t packetPoolAllocated() const;

    void report(StatGroup& stats, const std::string& prefix) const;

    /** Registers "cache.*" series, including per-stream hits/misses. */
    void registerMetrics(MetricRegistry& registry);

    /**
     * Checkpoint hooks. Barrier-side only: every shard must be quiescent
     * and deferred write exceptions applied. Tag stores (including
     * cross-shard proxies) are written in sorted (unit, sid) order with
     * their geometry so restore can reconstruct stores that
     * applyConfiguration never built in this process. The shard NoC/CXL/
     * fault models referenced by each context are serialized by their
     * owner (NdpSystem), not here.
     */
    void serialize(ckpt::Writer& w) const;
    void deserialize(ckpt::Reader& r);

  private:
    struct UnitState
    {
        std::unique_ptr<MemBackend> dram;
        Slb slb;
        SamplerBank samplers;
        std::unordered_map<StreamId, TagStore> stores;
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
     * Per-shard execution context: the shard's NoC and extended-memory
     * models, the shard's fault injector, all hot counters, deferred
     * write-exception state, and proxy tag/DRAM models for units served
     * on other shards. In non-sharded mode a single context (using the
     * constructor's NoC/ext) covers all units and the proxies are never
     * used.
     */
    /** Integer cost counters of one stream within one shard; energy is
     *  derived from these so the attribution shards exactly. */
    struct StreamCost
    {
        std::uint64_t slbLookups = 0;
        std::uint64_t ataLookups = 0;
        std::uint64_t dramBytes = 0;
        std::uint64_t dramActivations = 0;
    };

    struct ShardCtx
    {
        std::uint32_t id = 0;
        NocModel* noc = nullptr;
        ExtendedMemory* ext = nullptr;
        FaultInjector* fault = nullptr;

        LatencyBreakdown bd;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t uncached = 0;
        std::uint64_t bypasses = 0;
        std::uint64_t writeExceptions = 0;
        std::uint64_t wayPredictions = 0;
        std::uint64_t wayMispredictions = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t failedRedirects = 0;
        std::uint64_t dramFaults = 0;
        std::uint64_t poisonEscalations = 0;
        double sramEnergyNj = 0.0;
        /** Per-stream hit/miss counters (index = sid). */
        std::vector<std::uint64_t> streamHits;
        std::vector<std::uint64_t> streamMisses;
        /** Per-stream service latency (index = sid; kNoStream separate);
         *  excludes core writebacks, mirroring `bd`. */
        std::vector<LatencyBreakdown> streamBd;
        LatencyBreakdown noStreamBd;
        /** Per-stream SRAM/DRAM-cache cost counters. */
        std::vector<StreamCost> streamCost;
        StreamCost noStreamCost;

        StreamCost&
        costFor(StreamId sid)
        {
            if (sid == kNoStream) {
                return noStreamCost;
            }
            if (streamCost.size() <= sid) {
                streamCost.resize(sid + 1);
            }
            return streamCost[sid];
        }

        /** Streams whose first write was observed this interval. */
        std::vector<StreamId> pendingWritten;
        /** Guard: at most one exception per stream per shard. */
        std::vector<bool> writtenSeen;

        /** Proxy tag stores for cross-shard serving units,
         *  keyed (unit << 16) | sid. */
        std::unordered_map<std::uint64_t, TagStore> remoteStores;
        /** Proxy DRAM bank timing for cross-shard serving units. */
        std::unordered_map<UnitId, std::unique_ptr<MemBackend>>
            remoteDrams;

        /**
         * Flat (unit * stride + sid) -> TagStore* memo over the per-unit
         * store maps and remoteStores. Map nodes are pointer-stable
         * until erased, so entries stay valid across inserts; the memo
         * is dropped wholesale whenever tag-store geometry changes
         * (reconfiguration, replica collapse, unit failure -- all of
         * which funnel through clearRemoteStores()).
         */
        std::vector<TagStore*> storeCache;
        std::uint32_t storeCacheStride = 0;

        /** Shard-private pool for victim-writeback scratch packets. */
        PacketPool pool;
    };

    ShardCtx&
    ctxFor(UnitId unit)
    {
        return *ctxs_[sharded_ ? shardOfUnit_[unit] : 0];
    }

    /** The full L1-miss service path (old access()). */
    void handleAccess(ShardCtx& ctx, Packet& pkt);
    void handleWriteback(ShardCtx& ctx, Packet& pkt);

    /** Access path for stream data resident (or installable) in cache. */
    void accessCached(ShardCtx& ctx, UnitId src, const StreamConfig& cfg,
                      Packet& pkt);

    /** One NoC leg: src -> dst (Packet::kCxlEndpoint = portal). */
    void nocLeg(ShardCtx& ctx, Packet& pkt, UnitId src, UnitId dst,
                std::uint32_t bytes);

    /**
     * One extended-memory leg at the packet's current time, including
     * poison escalation; the packet's addr/bytes/op are preserved.
     */
    void extLeg(ShardCtx& ctx, Packet& pkt, Addr addr,
                std::uint32_t bytes, bool is_write);

    /** Direct extended-memory round trip (non-stream or uncached). */
    void bypassToExt(ShardCtx& ctx, UnitId unit, Packet& pkt, Addr addr,
                     std::uint32_t bytes, bool is_write);

    /** Did this cache hit's data suffer an ECC-detected bit fault? */
    bool eccFaultOnHit(ShardCtx& ctx, bool hit);

    /** CXL fetch + DRAM install of a granule at `loc`. */
    void fetchFill(ShardCtx& ctx, Packet& pkt, UnitId unit,
                   const StreamConfig& cfg, std::uint64_t granule,
                   const CacheLocation& loc);

    /** Non-blocking dirty-victim writeback to extended memory. */
    void writebackVictim(ShardCtx& ctx, UnitId unit,
                         const StreamConfig& cfg,
                         std::uint64_t victim_granule, Cycles t);

    /**
     * Baseline metadata lookup at the requesting unit: metadata cache
     * probe, on miss a (possibly remote) DRAM tag access.
     */
    void metadataLookup(ShardCtx& ctx, UnitId unit, Packet& pkt);

    /** Granule id of an access (mode-dependent). */
    std::uint64_t granuleForPacket(const StreamConfig& cfg,
                                   const Packet& pkt) const;

    /** DRAM access at a resolved cache location, charged to `sid`. */
    DramResult dramAt(ShardCtx& ctx, const CacheLocation& loc,
                      std::uint32_t bytes, bool is_write, Cycles t,
                      StreamId sid);

    /** Energy of a stream's cost counters (machine coefficients). */
    double sramEnergyFor(const StreamCost& c) const;
    double dramCacheEnergyFor(const StreamCost& c) const;

    /**
     * The tag store consulted by `ctx` for (unit, sid): the real store
     * for same-shard units, a shard-private proxy otherwise.
     */
    TagStore& storeFor(ShardCtx& ctx, UnitId unit, StreamId sid);

    /** Likewise for the unit's DRAM device. */
    MemBackend& dramFor(ShardCtx& ctx, UnitId unit);

    /**
     * Record a write-to-read-only exception. Inline in non-sharded mode;
     * deferred to the barrier otherwise. Returns true if this call
     * raised (and should be charged) the exception.
     */
    bool raiseWriteException(ShardCtx& ctx, StreamId sid);

    /** Drop all cross-shard tag-store proxies (geometry changed). */
    void clearRemoteStores();

    Addr granuleAddr(const StreamConfig& cfg, std::uint64_t granule) const;
    std::uint32_t granuleFetchBytes(const StreamConfig& cfg) const;

    StreamCacheParams params_;
    StreamTable& streams_;
    NocModel& noc_;
    ExtendedMemory& ext_;
    std::uint32_t rowBytes_;
    std::uint32_t rowsPerUnit_;
    MemBackendConfig unitDramCfg_;
    std::uint64_t coreFreqMhz_;
    StreamRemapTable remap_;
    std::vector<std::unique_ptr<UnitState>> units_;
    /** Per-unit failed flag (degraded mode). */
    std::vector<bool> unitFailed_;

    bool sharded_ = false;
    /** unit -> owning shard (stack) index; all 0 when not sharded. */
    std::vector<std::uint32_t> shardOfUnit_;
    std::vector<std::unique_ptr<ShardCtx>> ctxs_;

    /** Barrier-side row accounting (reconfigurations, collapses). */
    std::uint64_t invalidatedRows_ = 0;
    std::uint64_t survivedRows_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_NDP_STREAM_CACHE_H
