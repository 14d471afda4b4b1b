#include "ndp/stream_cache.h"

#include <algorithm>

#include "common/bitutils.h"
#include "common/logging.h"
#include "common/rng.h"
#include "telemetry/metric_registry.h"

namespace ndpext {

StreamCacheController::StreamCacheController(
    const StreamCacheParams& params, StreamTable& streams, NocModel& noc,
    ExtendedMemory& ext, const MemBackendConfig& unit_dram,
    std::uint64_t unit_cache_bytes, std::uint64_t core_freq_mhz)
    : params_(params), streams_(streams), noc_(noc), ext_(ext),
      rowBytes_(static_cast<std::uint32_t>(unit_dram.timing.rowBytes)),
      rowsPerUnit_(
          static_cast<std::uint32_t>(unit_cache_bytes
                                     / unit_dram.timing.rowBytes)),
      unitDramCfg_(unit_dram), coreFreqMhz_(core_freq_mhz),
      remap_(noc.topology().numUnits(), rowsPerUnit_, rowBytes_,
             params.remapMode)
{
    NDP_ASSERT(rowsPerUnit_ > 0, "unit cache smaller than one DRAM row");
    const std::uint32_t n = noc.topology().numUnits();
    units_.reserve(n);
    for (std::uint32_t u = 0; u < n; ++u) {
        units_.push_back(
            std::make_unique<UnitState>(unit_dram, core_freq_mhz, params_));
    }
    unitFailed_.assign(n, false);
    shardOfUnit_.assign(n, 0);

    // Single default context covering every unit, wired to the
    // constructor's NoC/ext models (exact legacy behavior).
    auto ctx = std::make_unique<ShardCtx>();
    ctx->noc = &noc_;
    ctx->ext = &ext_;
    ctxs_.push_back(std::move(ctx));
}

void
StreamCacheController::enableSharding(
    const std::vector<ShardResources>& resources)
{
    const MeshTopology& topo = noc_.topology();
    NDP_ASSERT(resources.size() == topo.numStacks(),
               "need one ShardResources per stack: ", resources.size(),
               " != ", topo.numStacks());
    sharded_ = true;
    for (UnitId u = 0; u < units_.size(); ++u) {
        shardOfUnit_[u] = topo.stackOf(u);
    }
    ctxs_.clear();
    for (std::size_t s = 0; s < resources.size(); ++s) {
        const ShardResources& res = resources[s];
        NDP_ASSERT(res.noc != nullptr && res.ext != nullptr,
                   "shard ", s, " missing NoC/ext models");
        auto ctx = std::make_unique<ShardCtx>();
        ctx->id = static_cast<std::uint32_t>(s);
        ctx->noc = res.noc;
        ctx->ext = res.ext;
        ctx->fault = res.fault;
        ctxs_.push_back(std::move(ctx));
    }
}

void
StreamCacheController::setFaultInjector(FaultInjector* fault)
{
    for (auto& ctx : ctxs_) {
        ctx->fault = fault;
    }
}

std::uint32_t
StreamCacheController::granuleOf(const StreamConfig& cfg) const
{
    if (params_.cachelineMode) {
        return kCachelineBytes;
    }
    if (cfg.type == StreamType::Affine) {
        return std::max(params_.affineBlockBytes, cfg.elemSize);
    }
    // Indirect elements are cached individually (Section IV-C), but a
    // DRAM burst is one cacheline, so sub-line elements are grouped into
    // one burst-sized unit (adjacent element ids share it).
    return std::max<std::uint32_t>(cfg.elemSize, kCachelineBytes);
}

std::uint64_t
StreamCacheController::granuleForPacket(const StreamConfig& cfg,
                                        const Packet& pkt) const
{
    if (params_.cachelineMode) {
        // Baselines track physical 64 B lines.
        return pkt.addr / kCachelineBytes;
    }
    return granuleIdOf(cfg, pkt.elem);
}

std::uint64_t
StreamCacheController::granuleIdOf(const StreamConfig& cfg,
                                   ElemId elem) const
{
    const std::uint32_t granule = granuleOf(cfg);
    const std::uint64_t elems_per_granule =
        std::max<std::uint64_t>(1, granule / cfg.elemSize);
    return elem / elems_per_granule;
}

Addr
StreamCacheController::granuleAddr(const StreamConfig& cfg,
                                   std::uint64_t granule) const
{
    if (params_.cachelineMode) {
        return granule * kCachelineBytes; // granule is a global line id
    }
    const std::uint32_t g = granuleOf(cfg);
    const std::uint64_t elems_per_granule =
        std::max<std::uint64_t>(1, g / cfg.elemSize);
    const ElemId first = granule * elems_per_granule;
    return cfg.addrOf(std::min<ElemId>(first, cfg.numElems() - 1));
}

std::uint32_t
StreamCacheController::granuleFetchBytes(const StreamConfig& cfg) const
{
    // Extended-memory transfers are at least one cacheline.
    return std::max<std::uint32_t>(granuleOf(cfg), kCachelineBytes);
}

SamplerBank&
StreamCacheController::samplerBank(UnitId unit)
{
    NDP_ASSERT(unit < units_.size());
    return units_[unit]->samplers;
}

const SamplerBank&
StreamCacheController::samplerBank(UnitId unit) const
{
    NDP_ASSERT(unit < units_.size());
    return units_[unit]->samplers;
}

const MemBackend&
StreamCacheController::unitDram(UnitId unit) const
{
    NDP_ASSERT(unit < units_.size());
    return *units_[unit]->dram;
}

TagStore&
StreamCacheController::storeFor(ShardCtx& ctx, UnitId unit, StreamId sid)
{
    // Memoized fast path: hash lookups into the store maps dominated
    // the access path; a flat pointer table turns the common repeat
    // lookup into one load. Map nodes are stable until erased, and
    // every erase point drops the memo via clearRemoteStores().
    const std::uint32_t stride =
        static_cast<std::uint32_t>(streams_.numStreams());
    if (ctx.storeCacheStride != stride) {
        ctx.storeCache.assign(
            units_.size() * static_cast<std::size_t>(stride), nullptr);
        ctx.storeCacheStride = stride;
    }
    const std::size_t memo =
        static_cast<std::size_t>(unit) * stride + sid;
    if (TagStore* cached = ctx.storeCache[memo]) {
        return *cached;
    }

    TagStore* found = nullptr;
    if (!sharded_ || shardOfUnit_[unit] == ctx.id) {
        auto& stores = units_[unit]->stores;
        auto it = stores.find(sid);
        if (it != stores.end()) {
            found = &it->second;
        } else {
            const StreamConfig& cfg = streams_.stream(sid);
            const std::uint32_t ways = params_.cachelineMode
                ? 1
                : (cfg.type == StreamType::Affine ? params_.affineWays
                                                  : params_.indirectWays);
            const std::uint64_t slots = remap_.unitSlots(sid, unit);
            auto [ins, ok] = stores.emplace(sid, TagStore(slots, ways));
            NDP_ASSERT(ok);
            found = &ins->second;
        }
    } else {
        // Cross-shard serving unit: consult a shard-private proxy built
        // from the shared (read-only between barriers) remap geometry.
        // The proxy approximates the remote slice's tag state with this
        // shard's own access history -- deterministic for any thread
        // count.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(unit) << 16) | sid;
        auto it = ctx.remoteStores.find(key);
        if (it != ctx.remoteStores.end()) {
            found = &it->second;
        } else {
            const StreamConfig& cfg = streams_.stream(sid);
            const std::uint32_t ways = params_.cachelineMode
                ? 1
                : (cfg.type == StreamType::Affine ? params_.affineWays
                                                  : params_.indirectWays);
            const std::uint64_t slots = remap_.unitSlots(sid, unit);
            found = &ctx.remoteStores.emplace(key, TagStore(slots, ways))
                         .first->second;
        }
    }
    ctx.storeCache[memo] = found;
    return *found;
}

MemBackend&
StreamCacheController::dramFor(ShardCtx& ctx, UnitId unit)
{
    if (!sharded_ || shardOfUnit_[unit] == ctx.id) {
        return *units_[unit]->dram;
    }
    auto it = ctx.remoteDrams.find(unit);
    if (it == ctx.remoteDrams.end()) {
        it = ctx.remoteDrams
                 .emplace(unit, createMemBackend(unitDramCfg_,
                                                 coreFreqMhz_))
                 .first;
    }
    return *it->second;
}

DramResult
StreamCacheController::dramAt(ShardCtx& ctx, const CacheLocation& loc,
                              std::uint32_t bytes, bool is_write, Cycles t,
                              StreamId sid)
{
    NDP_ASSERT(!unitFailed(loc.unit),
               "DRAM access on failed unit ", loc.unit);
    MemBackend& dram = dramFor(ctx, loc.unit);
    const std::uint32_t banks = dram.params().totalBanks();
    const std::uint32_t bank = loc.deviceRow % banks;
    const std::uint64_t row = loc.deviceRow / banks;
    const DramResult dr = dram.accessRow(bank, row, bytes, is_write, t);
    StreamCost& cost = ctx.costFor(sid);
    cost.dramBytes += bytes;
    if (!dr.rowHit) {
        ++cost.dramActivations; // backends activate on every non-hit
    }
    return dr;
}

void
StreamCacheController::nocLeg(ShardCtx& ctx, Packet& pkt, UnitId src,
                              UnitId dst, std::uint32_t bytes)
{
    pkt.hopSrc = src;
    pkt.hopDst = dst;
    pkt.bytes = bytes;
    ctx.noc->recvAtomic(pkt);

}

void
StreamCacheController::extLeg(ShardCtx& ctx, Packet& pkt, Addr addr,
                              std::uint32_t bytes, bool is_write)
{
    const Addr addr0 = pkt.addr;
    const std::uint32_t bytes0 = pkt.bytes;
    const MemOp op0 = pkt.op;
    pkt.addr = addr;
    pkt.bytes = bytes;
    pkt.op = is_write ? MemOp::Write : MemOp::Read;
    ctx.ext->recvAtomic(pkt);
    if (pkt.poisoned) {
        // Poisoned read: the host exception handler repairs the line
        // (re-materialises it from the source copy) and the access
        // completes with the repaired data after the penalty.
        ++ctx.poisonEscalations;
        const Cycles penalty = ctx.fault != nullptr
            ? ctx.fault->params().poisonPenaltyCycles
            : Cycles(0);
        pkt.ready += penalty;
        pkt.bd.extMem += penalty;
        pkt.poisoned = false;
    }
    pkt.addr = addr0;
    pkt.bytes = bytes0;
    pkt.op = op0;
}

bool
StreamCacheController::eccFaultOnHit(ShardCtx& ctx, bool hit)
{
    if (!hit || ctx.fault == nullptr || !ctx.fault->dramBitFault()) {
        return false;
    }
    // ECC detected an uncorrectable bit fault in the cached copy: the
    // data is unusable and must be re-fetched from extended memory.
    ++ctx.dramFaults;
    return true;
}

void
StreamCacheController::bypassToExt(ShardCtx& ctx, UnitId unit, Packet& pkt,
                                   Addr addr, std::uint32_t bytes,
                                   bool is_write)
{
    nocLeg(ctx, pkt, unit, Packet::kCxlEndpoint, params_.reqBytes);
    extLeg(ctx, pkt, addr, bytes, is_write);
    nocLeg(ctx, pkt, Packet::kCxlEndpoint, unit, bytes);
}

void
StreamCacheController::fetchFill(ShardCtx& ctx, Packet& pkt, UnitId unit,
                                 const StreamConfig& cfg,
                                 std::uint64_t granule,
                                 const CacheLocation& loc)
{
    const std::uint32_t bytes = granuleFetchBytes(cfg);
    const Addr addr = granuleAddr(cfg, granule);

    nocLeg(ctx, pkt, unit, Packet::kCxlEndpoint, params_.reqBytes);
    extLeg(ctx, pkt, addr, bytes, false);
    nocLeg(ctx, pkt, Packet::kCxlEndpoint, unit, bytes);

    // Install into the local DRAM row(s); critical word forwarded in
    // parallel, so the requester sees the fill completion time.
    const DramResult dr = dramAt(ctx, loc, bytes, true, pkt.ready, cfg.sid);
    pkt.bd.dramCache += dr.done - pkt.ready;
    pkt.ready = dr.done;
}

void
StreamCacheController::writebackVictim(ShardCtx& ctx, UnitId unit,
                                       const StreamConfig& cfg,
                                       std::uint64_t victim_granule,
                                       Cycles t)
{
    // Off the critical path: reserve bandwidth, do not stall the
    // requester. The scratch packet's latency breakdown is discarded.
    const std::uint32_t bytes = granuleFetchBytes(cfg);
    Packet* wb = ctx.pool.acquire();
    wb->addr = granuleAddr(cfg, victim_granule);
    wb->op = MemOp::Writeback;
    wb->src = kNoUnit;
    wb->ready = t;
    wb->sid = cfg.sid; // the victim's stream owns the writeback energy
    nocLeg(ctx, *wb, unit, Packet::kCxlEndpoint, bytes);
    extLeg(ctx, *wb, wb->addr, bytes, true);
    ctx.pool.release(wb);
    ++ctx.writebacks;
}

void
StreamCacheController::metadataLookup(ShardCtx& ctx, UnitId unit,
                                      Packet& pkt)
{
    SetAssocCache& meta = *units_[unit]->metaCache;
    const std::uint64_t key = pkt.addr / params_.metadataGranuleBytes;
    if (meta.access(key, false)) {
        pkt.bd.metadata += params_.metadataHitCycles;
        pkt.ready += params_.metadataHitCycles;
        return;
    }
    meta.insert(key, false);

    // Metadata lives in DRAM, distributed by address hash; a miss costs a
    // (often remote) DRAM access on the critical path (Section III-B).
    const UnitId home =
        static_cast<UnitId>(mix64(key) % units_.size());
    if (home != unit) {
        nocLeg(ctx, pkt, unit, home, 32);
    }
    const DramResult dr = dramFor(ctx, home).access(
        key * 4, kCachelineBytes, false, pkt.ready);
    StreamCost& cost = ctx.costFor(pkt.sid);
    cost.dramBytes += kCachelineBytes;
    if (!dr.rowHit) {
        ++cost.dramActivations;
    }
    pkt.bd.metadata += dr.done - pkt.ready;
    pkt.ready = dr.done;
    if (home != unit) {
        nocLeg(ctx, pkt, home, unit, 32);
    }
}

bool
StreamCacheController::raiseWriteException(ShardCtx& ctx, StreamId sid)
{
    if (!sharded_) {
        // Inline: flip the stream to writable and collapse replicas now.
        streams_.markWritten(sid);
        collapseReplication(sid);
        ++ctx.writeExceptions;
        return true;
    }
    // Deferred: the global side effects land at the next barrier. Each
    // shard raises (and charges) the exception at most once per stream.
    if (sid < ctx.writtenSeen.size() && ctx.writtenSeen[sid]) {
        return false;
    }
    if (ctx.writtenSeen.size() <= sid) {
        ctx.writtenSeen.resize(sid + 1, false);
    }
    ctx.writtenSeen[sid] = true;
    ctx.pendingWritten.push_back(sid);
    ++ctx.writeExceptions;
    return true;
}

void
StreamCacheController::applyDeferredWriteExceptions()
{
    if (!sharded_) {
        return;
    }
    std::vector<StreamId> sids;
    for (auto& ctx : ctxs_) {
        sids.insert(sids.end(), ctx->pendingWritten.begin(),
                    ctx->pendingWritten.end());
        ctx->pendingWritten.clear();
    }
    if (sids.empty()) {
        return;
    }
    std::sort(sids.begin(), sids.end());
    sids.erase(std::unique(sids.begin(), sids.end()), sids.end());
    for (const StreamId sid : sids) {
        if (streams_.stream(sid).readOnly) {
            streams_.markWritten(sid);
            collapseReplication(sid);
        }
    }
}

void
StreamCacheController::recvAtomic(Packet& pkt)
{
    ShardCtx& ctx = ctxFor(pkt.src); // one core per NDP unit
    if (pkt.op == MemOp::Writeback) {
        handleWriteback(ctx, pkt);
        return;
    }
    handleAccess(ctx, pkt);
    pkt.bd.requests += 1;
    ctx.bd.merge(pkt.bd);
    if (pkt.sid == kNoStream) {
        ctx.noStreamBd.merge(pkt.bd);
    } else {
        if (ctx.streamBd.size() <= pkt.sid) {
            ctx.streamBd.resize(pkt.sid + 1);
        }
        ctx.streamBd[pkt.sid].merge(pkt.bd);
    }
}

MemResult
StreamCacheController::access(CoreId core, const Access& acc, Cycles now)
{
    Packet pkt = Packet::request(acc, core, now);
    recvAtomic(pkt);
    return MemResult{pkt.ready};
}

void
StreamCacheController::writeback(CoreId core, Addr line_addr, Cycles now)
{
    Packet pkt = Packet::writeback(line_addr, core, now);
    recvAtomic(pkt);
}

namespace {

void
bumpStreamCounter(std::vector<std::uint64_t>& v, StreamId sid)
{
    if (v.size() <= sid) {
        v.resize(sid + 1, 0);
    }
    ++v[sid];
}

} // namespace

void
StreamCacheController::handleAccess(ShardCtx& ctx, Packet& pkt)
{
    const UnitId u = pkt.src;
    NDP_ASSERT(u < units_.size(), "core=", pkt.src);

    if (params_.cachelineMode) {
        // Baselines: per-access metadata lookup instead of the SLB.
        metadataLookup(ctx, u, pkt);
    } else if (pkt.sid == kNoStream) {
        // SLB TCAM search finds no stream: bypass (rare, Section IV-C).
        pkt.ready += params_.slbHitCycles;
        pkt.bd.metadata += params_.slbHitCycles;
        ctx.sramEnergyNj += params_.slbPjPerLookup * 1e-3;
        ++ctx.noStreamCost.slbLookups;
        ++ctx.bypasses;
        bypassToExt(ctx, u, pkt, pkt.addr, kCachelineBytes,
                    pkt.isWrite());
        return;
    } else {
        const Cycles slb_lat = units_[u]->slb.lookup(pkt.sid);
        pkt.ready += slb_lat;
        pkt.bd.metadata += slb_lat;
        ctx.sramEnergyNj += params_.slbPjPerLookup * 1e-3;
        ++ctx.costFor(pkt.sid).slbLookups;
    }

    if (pkt.sid == kNoStream) {
        ++ctx.bypasses;
        bypassToExt(ctx, u, pkt, pkt.addr, kCachelineBytes,
                    pkt.isWrite());
        return;
    }

    const StreamConfig& cfg = streams_.stream(pkt.sid);
    NDP_ASSERT(cfg.contains(pkt.addr), "access outside stream ", cfg.name);

    // Write to a read-only stream: host exception, collapse replicas.
    if (pkt.isWrite() && cfg.readOnly
        && raiseWriteException(ctx, pkt.sid)) {
        pkt.ready += params_.writeExceptionCycles;
        pkt.bd.metadata += params_.writeExceptionCycles;
    }

    // Sampling hardware observes the (granule-level) access.
    const std::uint64_t granule = granuleForPacket(cfg, pkt);
    units_[u]->samplers.observe(pkt.sid, granule);

    accessCached(ctx, u, cfg, pkt);
}

std::uint64_t
StreamCacheController::streamHits(StreamId sid) const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += sid < ctx->streamHits.size() ? ctx->streamHits[sid] : 0;
    }
    return total;
}

std::uint64_t
StreamCacheController::streamMisses(StreamId sid) const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total +=
            sid < ctx->streamMisses.size() ? ctx->streamMisses[sid] : 0;
    }
    return total;
}

void
StreamCacheController::accessCached(ShardCtx& ctx, UnitId u,
                                    const StreamConfig& cfg, Packet& pkt)
{
    const std::uint64_t granule = granuleForPacket(cfg, pkt);

    if (remap_.groupSlots(cfg.sid, u) == 0) {
        // No cache space allocated (e.g., affine space restriction or
        // pre-first-epoch): stream directly from extended memory.
        ++ctx.uncached;
        bumpStreamCounter(ctx.streamMisses, cfg.sid);
        bypassToExt(ctx, u, pkt, pkt.addr, kCachelineBytes,
                    pkt.isWrite());
        return;
    }

    const CacheLocation loc = remap_.locate(cfg.sid, granule, u);
    if (unitFailed(loc.unit)) {
        // The serving unit's cache slice is gone: degrade to an
        // extended-memory access instead of wedging. The runtime's
        // emergency reconfiguration will re-place the stream.
        ++ctx.failedRedirects;
        ++ctx.uncached;
        bumpStreamCounter(ctx.streamMisses, cfg.sid);
        bypassToExt(ctx, u, pkt, pkt.addr, kCachelineBytes,
                    pkt.isWrite());
        return;
    }
    const bool remote = loc.unit != u;

    if (remote) {
        nocLeg(ctx, pkt, u, loc.unit, params_.reqBytes);
    }
    pkt.ready += params_.unitHandlerCycles;
    pkt.bd.metadata += params_.unitHandlerCycles;

    TagStore& ts = storeFor(ctx, loc.unit, cfg.sid);
    if (!ts.usable()) {
        ++ctx.uncached;
        bypassToExt(ctx, u, pkt, pkt.addr, kCachelineBytes,
                    pkt.isWrite());
        return;
    }

    const bool is_write = pkt.isWrite();
    if (params_.cachelineMode) {
        // Baseline path: the metadata lookup already resolved the tag;
        // a hit needs one DRAM data access, a miss fetches the line.
        const auto res = ts.accessFill(loc.unitSlot, granule, is_write);
        if (res.hit && !eccFaultOnHit(ctx, true)) {
            ++ctx.hits;
            bumpStreamCounter(ctx.streamHits, cfg.sid);
            const DramResult dr = dramAt(ctx, loc, kCachelineBytes,
                                         is_write, pkt.ready, cfg.sid);
            pkt.bd.dramCache += dr.done - pkt.ready;
            pkt.ready = dr.done;
        } else {
            ++ctx.misses;
            bumpStreamCounter(ctx.streamMisses, cfg.sid);
            if (!res.hit && res.evictedDirty) {
                writebackVictim(ctx, loc.unit, cfg, res.evictedKey,
                                pkt.ready);
            }
            fetchFill(ctx, pkt, loc.unit, cfg, granule, loc);
        }
    } else if (cfg.type == StreamType::Affine) {
        // SRAM tag array first; DRAM touched only as needed.
        pkt.ready += params_.ataCycles;
        pkt.bd.metadata += params_.ataCycles;
        ctx.sramEnergyNj += params_.ataPjPerLookup * 1e-3;
        ++ctx.costFor(cfg.sid).ataLookups;

        const auto res = ts.accessFill(loc.unitSlot, granule, is_write);
        if (res.hit && !eccFaultOnHit(ctx, true)) {
            ++ctx.hits;
            bumpStreamCounter(ctx.streamHits, cfg.sid);
            const DramResult dr = dramAt(ctx, loc, kCachelineBytes,
                                         is_write, pkt.ready, cfg.sid);
            pkt.bd.dramCache += dr.done - pkt.ready;
            pkt.ready = dr.done;
        } else {
            ++ctx.misses;
            bumpStreamCounter(ctx.streamMisses, cfg.sid);
            if (!res.hit && res.evictedDirty) {
                writebackVictim(ctx, loc.unit, cfg, res.evictedKey,
                                pkt.ready);
            }
            fetchFill(ctx, pkt, loc.unit, cfg, granule, loc);
        }
    } else {
        // Indirect: tag-with-data. Direct-mapped (default): one DRAM
        // access returns tag + data. Associative without prediction: one
        // wider access reads the whole set. With way prediction, read
        // only the predicted (MRU) way and pay a second access when a
        // hit lands in another way.
        const std::uint32_t set_factor =
            (params_.indirectWays > 1 && !params_.indirectWayPrediction)
            ? params_.indirectWays
            : 1;
        const std::uint32_t probe_bytes = std::min<std::uint32_t>(
            (granuleOf(cfg) + 8) * set_factor, rowBytes_);
        const DramResult dr =
            dramAt(ctx, loc, probe_bytes, is_write, pkt.ready, cfg.sid);
        pkt.bd.dramCache += dr.done - pkt.ready;
        pkt.ready = dr.done;

        const auto res = ts.accessFill(loc.unitSlot, granule, is_write);
        if (params_.indirectWays > 1 && params_.indirectWayPrediction) {
            ++ctx.wayPredictions;
            if (res.hit && res.way != res.predictedWay) {
                ++ctx.wayMispredictions;
                const DramResult retry = dramAt(
                    ctx, loc,
                    std::min<std::uint32_t>(granuleOf(cfg) + 8, rowBytes_),
                    is_write, pkt.ready, cfg.sid);
                pkt.bd.dramCache += retry.done - pkt.ready;
                pkt.ready = retry.done;
            }
        }
        if (res.hit && !eccFaultOnHit(ctx, true)) {
            ++ctx.hits;
            bumpStreamCounter(ctx.streamHits, cfg.sid);
        } else {
            ++ctx.misses;
            bumpStreamCounter(ctx.streamMisses, cfg.sid);
            if (!res.hit && res.evictedDirty) {
                writebackVictim(ctx, loc.unit, cfg, res.evictedKey,
                                pkt.ready);
            }
            fetchFill(ctx, pkt, loc.unit, cfg, granule, loc);
        }
    }

    if (remote) {
        nocLeg(ctx, pkt, loc.unit, u, params_.rspBytes);
    }
}

void
StreamCacheController::handleWriteback(ShardCtx& ctx, Packet& pkt)
{
    const UnitId u = pkt.src;
    const Addr line_addr = pkt.addr;
    const Cycles now = pkt.ready;
    const StreamId sid = streams_.findByAddr(line_addr);
    if (sid == kNoStream) {
        // Non-stream dirty line: write straight to extended memory.
        nocLeg(ctx, pkt, u, Packet::kCxlEndpoint, kCachelineBytes);
        extLeg(ctx, pkt, line_addr, kCachelineBytes, true);
        return;
    }
    const StreamConfig& cfg = streams_.stream(sid);
    pkt.sid = sid; // the owning stream pays the writeback energy
    if (cfg.readOnly) {
        raiseWriteException(ctx, sid);
    }
    if (remap_.groupSlots(sid, u) == 0) {
        nocLeg(ctx, pkt, u, Packet::kCxlEndpoint, kCachelineBytes);
        extLeg(ctx, pkt, line_addr, kCachelineBytes, true);
        return;
    }
    const std::uint64_t granule = params_.cachelineMode
        ? line_addr / kCachelineBytes
        : granuleIdOf(cfg, cfg.elemIdOf(line_addr));
    const CacheLocation loc = remap_.locate(sid, granule, u);
    if (unitFailed(loc.unit)) {
        // Serving unit is dead: write through to extended memory.
        ++ctx.failedRedirects;
        nocLeg(ctx, pkt, u, Packet::kCxlEndpoint, kCachelineBytes);
        extLeg(ctx, pkt, line_addr, kCachelineBytes, true);
        return;
    }
    if (loc.unit != u) {
        nocLeg(ctx, pkt, u, loc.unit, kCachelineBytes);
        pkt.ready = now; // fire-and-forget: requester is not stalled
    }
    TagStore& ts = storeFor(ctx, loc.unit, sid);
    if (ts.usable() && ts.probe(loc.unitSlot, granule)) {
        ts.accessFill(loc.unitSlot, granule, true); // mark dirty
        dramAt(ctx, loc, kCachelineBytes, true, now, sid);
    } else {
        // Not cached: write through to extended memory.
        nocLeg(ctx, pkt, loc.unit, Packet::kCxlEndpoint, kCachelineBytes);
        extLeg(ctx, pkt, line_addr, kCachelineBytes, true);
    }
}

void
StreamCacheController::clearRemoteStores()
{
    for (auto& ctx : ctxs_) {
        ctx->remoteStores.clear();
        // Geometry changed: every memoized TagStore* may now dangle.
        ctx->storeCache.clear();
        ctx->storeCacheStride = 0;
    }
}

void
StreamCacheController::collapseReplication(StreamId sid)
{
    const StreamAlloc* cur = remap_.alloc(sid);
    if (cur == nullptr || cur->numGroups <= 1) {
        return;
    }
    // Keep only the serving-group capacity shape but merge all units into
    // one global group; replicas become plain distributed capacity.
    StreamAlloc merged = *cur;
    for (auto& g : merged.groupOf) {
        g = 0;
    }
    merged.numGroups = 1;
    const StreamConfig& cfg = streams_.stream(sid);
    remap_.setAlloc(sid, std::move(merged), granuleOf(cfg), noc_);

    // Invalidate the stream's cached data everywhere (clean: no writeback
    // needed, Section IV-B) and its SLB entries.
    for (UnitId u = 0; u < units_.size(); ++u) {
        auto it = units_[u]->stores.find(sid);
        if (it != units_[u]->stores.end()) {
            invalidatedRows_ += remap_.alloc(sid)->shareRows[u];
            units_[u]->stores.erase(it);
        }
        units_[u]->slb.invalidate(sid);
    }
    clearRemoteStores();
}

void
StreamCacheController::onUnitFailed(UnitId unit)
{
    NDP_ASSERT(unit < units_.size(), "unit=", unit);
    if (unitFailed_[unit]) {
        return;
    }

    // Replication groups spanning the failed unit lose a replica: the
    // same Section IV-B exception path that handles a first write also
    // collapses them to one global group. Do this before marking the
    // unit failed so the collapse can still count its rows.
    for (std::uint32_t s = 0; s < streams_.numStreams(); ++s) {
        const StreamId sid = static_cast<StreamId>(s);
        const StreamAlloc* alloc = remap_.alloc(sid);
        if (alloc == nullptr || alloc->numGroups <= 1) {
            continue;
        }
        if (unit < alloc->shareRows.size()
            && alloc->shareRows[unit] > 0) {
            collapseReplication(sid);
        }
    }

    unitFailed_[unit] = true;

    // The unit's cache slice, tag stores and sampler state are gone.
    // Accesses hashing there redirect to extended memory until the
    // runtime installs a fresh configuration around the unit.
    for (const auto& [sid, store] : units_[unit]->stores) {
        const StreamAlloc* alloc = remap_.alloc(sid);
        if (alloc != nullptr && unit < alloc->shareRows.size()) {
            invalidatedRows_ += alloc->shareRows[unit];
        }
    }
    units_[unit]->stores.clear();
    units_[unit]->slb.invalidateAll();
    units_[unit]->samplers.newEpoch();
    clearRemoteStores();
}

void
StreamCacheController::applyConfiguration(
    const std::vector<std::pair<StreamId, StreamAlloc>>& allocs)
{
    // A reconfiguration repartitions the whole cache: streams absent from
    // the new scheme lose their space (and their cached data).
    std::vector<bool> in_config(streams_.numStreams(), false);
    for (const auto& [sid, alloc] : allocs) {
        (void)alloc;
        if (sid < in_config.size()) {
            in_config[sid] = true;
        }
    }
    for (std::size_t s = 0; s < in_config.size(); ++s) {
        const StreamId sid = static_cast<StreamId>(s);
        if (in_config[s] || remap_.alloc(sid) == nullptr) {
            continue;
        }
        invalidatedRows_ += remap_.alloc(sid)->totalRows();
        remap_.clearAlloc(sid);
        for (auto& unit : units_) {
            unit->stores.erase(sid);
        }
    }

    for (const auto& [sid, alloc] : allocs) {
        const StreamConfig& cfg = streams_.stream(sid);
        const std::uint32_t granule = granuleOf(cfg);
        const std::uint32_t ways = params_.cachelineMode
            ? 1
            : (cfg.type == StreamType::Affine ? params_.affineWays
                                              : params_.indirectWays);

        // Capture the outgoing stores to carry surviving rows over.
        std::unordered_map<UnitId, TagStore> old_stores;
        std::uint64_t old_rows = 0;
        const StreamAlloc* prev = remap_.alloc(sid);
        if (prev != nullptr) {
            old_rows = prev->totalRows();
            for (UnitId u = 0; u < units_.size(); ++u) {
                auto it = units_[u]->stores.find(sid);
                if (it != units_[u]->stores.end()) {
                    old_stores.emplace(u, std::move(it->second));
                    units_[u]->stores.erase(it);
                }
            }
        }

        remap_.setAlloc(sid, alloc, granule, noc_);

        // Build fresh stores for every unit with space.
        for (UnitId u = 0; u < units_.size(); ++u) {
            const std::uint64_t slots = remap_.unitSlots(sid, u);
            if (slots == 0) {
                continue;
            }
            units_[u]->stores.emplace(sid, TagStore(slots, ways));
        }

        // Carry rows preserved by consistent hashing.
        const auto& surviving = remap_.survivingRows(sid);
        const std::uint64_t sets_per_row = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(rowBytes_) / granule / ways);
        for (const auto& row : surviving) {
            auto oit = old_stores.find(row.unit);
            auto nit = units_[row.unit]->stores.find(sid);
            if (oit == old_stores.end()
                || nit == units_[row.unit]->stores.end()) {
                continue;
            }
            nit->second.copyRange(
                oit->second,
                static_cast<std::uint64_t>(row.oldRowOffset) * sets_per_row,
                static_cast<std::uint64_t>(row.newRowOffset) * sets_per_row,
                sets_per_row);
        }
        const std::uint64_t survived = surviving.size();
        survivedRows_ += survived;
        invalidatedRows_ += old_rows > survived ? old_rows - survived : 0;
    }

    remap_.validateCapacity();

    // Remap-table contents changed: all SLB copies are stale.
    for (auto& unit : units_) {
        unit->slb.invalidateAll();
    }
    clearRemoteStores();
}

LatencyBreakdown
StreamCacheController::breakdown() const
{
    LatencyBreakdown bd;
    for (const auto& ctx : ctxs_) {
        bd.merge(ctx->bd);
    }
    return bd;
}

std::uint64_t
StreamCacheController::cacheHits() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->hits;
    }
    return total;
}

std::uint64_t
StreamCacheController::cacheMisses() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->misses;
    }
    return total;
}

std::uint64_t
StreamCacheController::uncachedStreamAccesses() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->uncached;
    }
    return total;
}

std::uint64_t
StreamCacheController::bypasses() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->bypasses;
    }
    return total;
}

std::uint64_t
StreamCacheController::writeExceptions() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->writeExceptions;
    }
    return total;
}

std::uint64_t
StreamCacheController::failedUnitRedirects() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->failedRedirects;
    }
    return total;
}

std::uint64_t
StreamCacheController::dramFaultRefetches() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->dramFaults;
    }
    return total;
}

std::uint64_t
StreamCacheController::poisonEscalations() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->poisonEscalations;
    }
    return total;
}

std::uint64_t
StreamCacheController::packetPoolHighWater() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->pool.highWater();
    }
    return total;
}

std::uint64_t
StreamCacheController::packetPoolAllocated() const
{
    std::uint64_t total = 0;
    for (const auto& ctx : ctxs_) {
        total += ctx->pool.allocated();
    }
    return total;
}

double
StreamCacheController::sramEnergyNj() const
{
    double total = 0.0;
    for (const auto& ctx : ctxs_) {
        total += ctx->sramEnergyNj;
    }
    return total;
}

LatencyBreakdown
StreamCacheController::streamBreakdown(StreamId sid) const
{
    LatencyBreakdown bd;
    for (const auto& ctx : ctxs_) {
        if (sid < ctx->streamBd.size()) {
            bd.merge(ctx->streamBd[sid]);
        }
    }
    return bd;
}

LatencyBreakdown
StreamCacheController::nonStreamBreakdown() const
{
    LatencyBreakdown bd;
    for (const auto& ctx : ctxs_) {
        bd.merge(ctx->noStreamBd);
    }
    return bd;
}

double
StreamCacheController::sramEnergyFor(const StreamCost& c) const
{
    return static_cast<double>(c.slbLookups) * params_.slbPjPerLookup
        * 1e-3
        + static_cast<double>(c.ataLookups) * params_.ataPjPerLookup
        * 1e-3;
}

double
StreamCacheController::dramCacheEnergyFor(const StreamCost& c) const
{
    return static_cast<double>(c.dramBytes) * 8.0
        * unitDramCfg_.timing.rdWrPjPerBit * 1e-3
        + static_cast<double>(c.dramActivations)
        * unitDramCfg_.timing.actPreNj;
}

double
StreamCacheController::streamSramEnergyNj(StreamId sid) const
{
    StreamCost sum;
    for (const auto& ctx : ctxs_) {
        if (sid < ctx->streamCost.size()) {
            sum.slbLookups += ctx->streamCost[sid].slbLookups;
            sum.ataLookups += ctx->streamCost[sid].ataLookups;
        }
    }
    return sramEnergyFor(sum);
}

double
StreamCacheController::nonStreamSramEnergyNj() const
{
    StreamCost sum;
    for (const auto& ctx : ctxs_) {
        sum.slbLookups += ctx->noStreamCost.slbLookups;
        sum.ataLookups += ctx->noStreamCost.ataLookups;
    }
    return sramEnergyFor(sum);
}

double
StreamCacheController::streamDramCacheEnergyNj(StreamId sid) const
{
    StreamCost sum;
    for (const auto& ctx : ctxs_) {
        if (sid < ctx->streamCost.size()) {
            sum.dramBytes += ctx->streamCost[sid].dramBytes;
            sum.dramActivations += ctx->streamCost[sid].dramActivations;
        }
    }
    return dramCacheEnergyFor(sum);
}

double
StreamCacheController::nonStreamDramCacheEnergyNj() const
{
    StreamCost sum;
    for (const auto& ctx : ctxs_) {
        sum.dramBytes += ctx->noStreamCost.dramBytes;
        sum.dramActivations += ctx->noStreamCost.dramActivations;
    }
    return dramCacheEnergyFor(sum);
}

std::uint64_t
StreamCacheController::slbMissTotal() const
{
    std::uint64_t total = 0;
    for (const auto& unit : units_) {
        total += unit->slb.misses();
    }
    return total;
}

double
StreamCacheController::missRate() const
{
    const std::uint64_t hits = cacheHits();
    const std::uint64_t misses = cacheMisses();
    const std::uint64_t uncached = uncachedStreamAccesses();
    const double denom = static_cast<double>(hits + misses + uncached);
    return denom == 0.0
        ? 0.0
        : static_cast<double>(misses + uncached) / denom;
}

double
StreamCacheController::wayPredictionRate() const
{
    std::uint64_t predictions = 0;
    std::uint64_t mispredictions = 0;
    for (const auto& ctx : ctxs_) {
        predictions += ctx->wayPredictions;
        mispredictions += ctx->wayMispredictions;
    }
    if (predictions == 0) {
        return 1.0;
    }
    return 1.0
        - static_cast<double>(mispredictions)
            / static_cast<double>(predictions);
}

double
StreamCacheController::metadataHitRate() const
{
    if (!params_.cachelineMode) {
        return 1.0;
    }
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto& unit : units_) {
        hits += unit->metaCache->hits();
        misses += unit->metaCache->misses();
    }
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 1.0 : static_cast<double>(hits) / total;
}

double
StreamCacheController::dramCacheEnergyNj() const
{
    double total = 0.0;
    for (const auto& unit : units_) {
        total += unit->dram->dynamicEnergyNj();
    }
    // Proxy devices model remote-unit traffic from other shards; their
    // energy belongs to the DRAM-cache bucket too. Summed in sorted
    // unit order so the float total is independent of hash-map
    // insertion history (a restored run must reproduce it exactly).
    for (const auto& ctx : ctxs_) {
        std::vector<UnitId> units;
        units.reserve(ctx->remoteDrams.size());
        for (const auto& [unit, dram] : ctx->remoteDrams) {
            (void)dram;
            units.push_back(unit);
        }
        std::sort(units.begin(), units.end());
        for (const UnitId unit : units) {
            total += ctx->remoteDrams.at(unit)->dynamicEnergyNj();
        }
    }
    return total;
}

void
StreamCacheController::report(StatGroup& stats,
                              const std::string& prefix) const
{
    breakdown().report(stats, prefix + ".lat");
    stats.add(prefix + ".hits", static_cast<double>(cacheHits()));
    stats.add(prefix + ".misses", static_cast<double>(cacheMisses()));
    stats.add(prefix + ".uncached",
              static_cast<double>(uncachedStreamAccesses()));
    stats.add(prefix + ".bypasses", static_cast<double>(bypasses()));
    stats.add(prefix + ".writeExceptions",
              static_cast<double>(writeExceptions()));
    std::uint64_t writebacks = 0;
    for (const auto& ctx : ctxs_) {
        writebacks += ctx->writebacks;
    }
    stats.add(prefix + ".writebacks", static_cast<double>(writebacks));
    stats.add(prefix + ".invalidatedRows",
              static_cast<double>(invalidatedRows_));
    stats.add(prefix + ".survivedRows", static_cast<double>(survivedRows_));
    stats.add(prefix + ".slbMisses",
              static_cast<double>(slbMissTotal()));
    stats.add(prefix + ".degraded.failedUnitRedirects",
              static_cast<double>(failedUnitRedirects()));
    stats.add(prefix + ".degraded.dramFaultRefetches",
              static_cast<double>(dramFaultRefetches()));
    stats.add(prefix + ".degraded.poisonEscalations",
              static_cast<double>(poisonEscalations()));
    stats.add(prefix + ".dramCacheEnergyNj", dramCacheEnergyNj());
    stats.add(prefix + ".sramEnergyNj", sramEnergyNj());
}

void
StreamCacheController::registerMetrics(MetricRegistry& registry)
{
    registry.registerCounter("cache.hits",
                             [this] { return double(cacheHits()); });
    registry.registerCounter("cache.misses",
                             [this] { return double(cacheMisses()); });
    registry.registerCounter("cache.uncached", [this] {
        return double(uncachedStreamAccesses());
    });
    registry.registerCounter("cache.bypasses",
                             [this] { return double(bypasses()); });
    registry.registerCounter("cache.writeExceptions", [this] {
        return double(writeExceptions());
    });
    registry.registerCounter("cache.slbMisses",
                             [this] { return double(slbMissTotal()); });
    registry.registerCounter("cache.invalidatedRows",
                             [this] { return double(invalidatedRows_); });
    registry.registerCounter("cache.survivedRows",
                             [this] { return double(survivedRows_); });
    registry.registerCounter("cache.degraded.failedUnitRedirects", [this] {
        return double(failedUnitRedirects());
    });
    registry.registerCounter("cache.degraded.dramFaultRefetches", [this] {
        return double(dramFaultRefetches());
    });
    registry.registerCounter("cache.degraded.poisonEscalations", [this] {
        return double(poisonEscalations());
    });
    registry.registerCounter("cache.dramCacheEnergyNj",
                             [this] { return dramCacheEnergyNj(); });
    registry.registerCounter("cache.sramEnergyNj",
                             [this] { return sramEnergyNj(); });
    // Backend telemetry: every unit device registers under one
    // "cache.dram" prefix; duplicate names sum, so the series is the
    // machine-wide total. (Cross-shard proxies are created lazily after
    // registration and are not sampled.)
    for (auto& unit : units_) {
        unit->dram->registerMetrics(registry, "cache.dram");
    }
    // Per-stream hit/miss series feed ndpext_report's per-stream hit-rate
    // table. Streams must be configured before metrics registration.
    for (const StreamConfig& cfg : streams_.all()) {
        const StreamId sid = cfg.sid;
        std::string base = "cache.stream.";
        base += std::to_string(sid);
        registry.registerCounter(base + ".hits", [this, sid] {
            return double(streamHits(sid));
        });
        registry.registerCounter(base + ".misses", [this, sid] {
            return double(streamMisses(sid));
        });
    }
}

namespace {

void
writeBd(ckpt::Writer& w, const LatencyBreakdown& bd)
{
    w.u64(bd.metadata);
    w.u64(bd.icnIntra);
    w.u64(bd.icnInter);
    w.u64(bd.dramCache);
    w.u64(bd.extMem);
    w.u64(bd.requests);
}

void
readBd(ckpt::Reader& r, LatencyBreakdown& bd)
{
    bd.metadata = r.u64();
    bd.icnIntra = r.u64();
    bd.icnInter = r.u64();
    bd.dramCache = r.u64();
    bd.extMem = r.u64();
    bd.requests = r.u64();
}

/** A tag store with its geometry, so restore can reconstruct it. */
void
writeStore(ckpt::Writer& w, const TagStore& ts)
{
    w.u32(ts.numWays());
    w.u64(ts.numSets() * ts.numWays()); // slots, the ctor argument
    ts.serialize(w);
}

TagStore
readStore(ckpt::Reader& r)
{
    const std::uint32_t ways = r.u32();
    const std::uint64_t slots = r.u64();
    TagStore ts(slots, ways);
    ts.deserialize(r);
    return ts;
}

} // namespace

void
StreamCacheController::serialize(ckpt::Writer& w) const
{
    w.section(0x0CAC);
    remap_.serialize(w);
    w.u64(units_.size());
    for (const auto& unit : units_) {
        unit->dram->serialize(w);
        unit->slb.serialize(w);
        unit->samplers.serialize(w);
        std::vector<StreamId> sids;
        sids.reserve(unit->stores.size());
        for (const auto& [sid, ts] : unit->stores) {
            (void)ts;
            sids.push_back(sid);
        }
        std::sort(sids.begin(), sids.end());
        w.u64(sids.size());
        for (const StreamId sid : sids) {
            w.u32(sid);
            writeStore(w, unit->stores.at(sid));
        }
        w.b(unit->metaCache != nullptr);
        if (unit->metaCache != nullptr) {
            unit->metaCache->serialize(w);
        }
    }
    w.vecB(unitFailed_);
    w.u64(ctxs_.size());
    for (const auto& ctx : ctxs_) {
        writeBd(w, ctx->bd);
        w.u64(ctx->hits);
        w.u64(ctx->misses);
        w.u64(ctx->uncached);
        w.u64(ctx->bypasses);
        w.u64(ctx->writeExceptions);
        w.u64(ctx->wayPredictions);
        w.u64(ctx->wayMispredictions);
        w.u64(ctx->writebacks);
        w.u64(ctx->failedRedirects);
        w.u64(ctx->dramFaults);
        w.u64(ctx->poisonEscalations);
        w.d(ctx->sramEnergyNj);
        w.vecU64(ctx->streamHits);
        w.vecU64(ctx->streamMisses);
        w.u64(ctx->streamBd.size());
        for (const LatencyBreakdown& bd : ctx->streamBd) {
            writeBd(w, bd);
        }
        writeBd(w, ctx->noStreamBd);
        w.u64(ctx->streamCost.size());
        for (const StreamCost& c : ctx->streamCost) {
            w.u64(c.slbLookups);
            w.u64(c.ataLookups);
            w.u64(c.dramBytes);
            w.u64(c.dramActivations);
        }
        w.u64(ctx->noStreamCost.slbLookups);
        w.u64(ctx->noStreamCost.ataLookups);
        w.u64(ctx->noStreamCost.dramBytes);
        w.u64(ctx->noStreamCost.dramActivations);
        // Deferred write exceptions are applied at the barrier before a
        // checkpoint is cut, but serialize them anyway for safety.
        w.u64(ctx->pendingWritten.size());
        for (const StreamId sid : ctx->pendingWritten) {
            w.u32(sid);
        }
        w.vecB(ctx->writtenSeen);
        std::vector<std::uint64_t> keys;
        keys.reserve(ctx->remoteStores.size());
        for (const auto& [key, ts] : ctx->remoteStores) {
            (void)ts;
            keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end());
        w.u64(keys.size());
        for (const std::uint64_t key : keys) {
            w.u64(key);
            writeStore(w, ctx->remoteStores.at(key));
        }
        std::vector<UnitId> runits;
        runits.reserve(ctx->remoteDrams.size());
        for (const auto& [u, d] : ctx->remoteDrams) {
            (void)d;
            runits.push_back(u);
        }
        std::sort(runits.begin(), runits.end());
        w.u64(runits.size());
        for (const UnitId u : runits) {
            w.u32(u);
            ctx->remoteDrams.at(u)->serialize(w);
        }
        ctx->pool.serialize(w);
    }
    w.u64(invalidatedRows_);
    w.u64(survivedRows_);
}

void
StreamCacheController::deserialize(ckpt::Reader& r)
{
    r.section(0x0CAC);
    remap_.deserialize(r, noc_);
    const std::uint64_t nunits = r.u64();
    NDP_ASSERT(nunits == units_.size(), "checkpoint unit-count mismatch");
    for (auto& unit : units_) {
        unit->dram->deserialize(r);
        unit->slb.deserialize(r);
        unit->samplers.deserialize(r);
        unit->stores.clear();
        const std::uint64_t nstores = r.u64();
        for (std::uint64_t i = 0; i < nstores; ++i) {
            const StreamId sid = static_cast<StreamId>(r.u32());
            unit->stores.emplace(sid, readStore(r));
        }
        const bool has_meta = r.b();
        NDP_ASSERT(has_meta == (unit->metaCache != nullptr),
                   "metadata-cache mode mismatch");
        if (has_meta) {
            unit->metaCache->deserialize(r);
        }
    }
    unitFailed_ = r.vecB();
    NDP_ASSERT(unitFailed_.size() == units_.size());
    const std::uint64_t nctx = r.u64();
    NDP_ASSERT(nctx == ctxs_.size(), "checkpoint shard-count mismatch");
    for (auto& ctx : ctxs_) {
        readBd(r, ctx->bd);
        ctx->hits = r.u64();
        ctx->misses = r.u64();
        ctx->uncached = r.u64();
        ctx->bypasses = r.u64();
        ctx->writeExceptions = r.u64();
        ctx->wayPredictions = r.u64();
        ctx->wayMispredictions = r.u64();
        ctx->writebacks = r.u64();
        ctx->failedRedirects = r.u64();
        ctx->dramFaults = r.u64();
        ctx->poisonEscalations = r.u64();
        ctx->sramEnergyNj = r.d();
        ctx->streamHits = r.vecU64();
        ctx->streamMisses = r.vecU64();
        ctx->streamBd.assign(r.u64(), LatencyBreakdown{});
        for (LatencyBreakdown& bd : ctx->streamBd) {
            readBd(r, bd);
        }
        readBd(r, ctx->noStreamBd);
        ctx->streamCost.assign(r.u64(), StreamCost{});
        for (StreamCost& c : ctx->streamCost) {
            c.slbLookups = r.u64();
            c.ataLookups = r.u64();
            c.dramBytes = r.u64();
            c.dramActivations = r.u64();
        }
        ctx->noStreamCost.slbLookups = r.u64();
        ctx->noStreamCost.ataLookups = r.u64();
        ctx->noStreamCost.dramBytes = r.u64();
        ctx->noStreamCost.dramActivations = r.u64();
        ctx->pendingWritten.assign(r.u64(), kNoStream);
        for (StreamId& sid : ctx->pendingWritten) {
            sid = static_cast<StreamId>(r.u32());
        }
        ctx->writtenSeen = r.vecB();
        ctx->remoteStores.clear();
        const std::uint64_t nremote = r.u64();
        for (std::uint64_t i = 0; i < nremote; ++i) {
            const std::uint64_t key = r.u64();
            ctx->remoteStores.emplace(key, readStore(r));
        }
        ctx->remoteDrams.clear();
        const std::uint64_t ndrams = r.u64();
        for (std::uint64_t i = 0; i < ndrams; ++i) {
            const UnitId u = static_cast<UnitId>(r.u32());
            auto dram = createMemBackend(unitDramCfg_, coreFreqMhz_);
            dram->deserialize(r);
            ctx->remoteDrams.emplace(u, std::move(dram));
        }
        ctx->pool.deserialize(r);
        // Every memoized TagStore* referenced pre-restore storage.
        ctx->storeCache.clear();
        ctx->storeCacheStride = 0;
    }
    invalidatedRows_ = r.u64();
    survivedRows_ = r.u64();
}

} // namespace ndpext
