#include "ndp/stream_cache.h"

#include <algorithm>
#include <utility>

#include "common/bitutils.h"
#include "common/logging.h"
#include "common/rng.h"

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
      unitDramCfg_(unit_dram),
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
    stores_.resize(streams_.numStreams() * std::size_t{n});
    unitFailed_.assign(n, false);
}

void
StreamCacheController::setFaultInjector(FaultInjector* fault)
{
    fault_ = fault;
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

std::uint32_t
StreamCacheController::waysOf(const StreamConfig& cfg) const
{
    if (params_.cachelineMode) {
        return 1;
    }
    return cfg.type == StreamType::Affine ? params_.affineWays
                                          : params_.indirectWays;
}

std::span<std::optional<TagStore>>
StreamCacheController::storesOf(StreamId sid)
{
    const std::size_t n = units_.size();
    const std::size_t first = static_cast<std::size_t>(sid) * n;
    if (first + n > stores_.size()) {
        // A stream added after construction.
        NDP_ASSERT(sid < streams_.numStreams(), "bad sid ", sid);
        stores_.resize(streams_.numStreams() * n);
    }
    return {stores_.data() + first, n};
}

TagStore&
StreamCacheController::storeFor(UnitId unit, StreamId sid)
{
    std::optional<TagStore>& ts = storesOf(sid)[unit];
    if (!ts) {
        ts.emplace(remap_.unitSlots(sid, unit),
                   waysOf(streams_.stream(sid)));
    }
    return *ts;
}

DramResult
StreamCacheController::dramAt(const CacheLocation& loc, std::uint32_t bytes,
                              bool is_write, Cycles t, StreamId sid)
{
    NDP_ASSERT(!unitFailed(loc.unit),
               "DRAM access on failed unit ", loc.unit);
    MemBackend& dram = *units_[loc.unit]->dram;
    const std::uint32_t banks = dram.params().totalBanks();
    const std::uint32_t bank = loc.deviceRow % banks;
    const std::uint64_t row = loc.deviceRow / banks;
    const DramResult dr = dram.accessRow(bank, row, bytes, is_write, t);
    StreamRow& cost = ledger_[sid];
    cost.dramBytes += bytes;
    if (!dr.rowHit) {
        ++cost.dramActivations; // backends activate on every non-hit
    }
    return dr;
}

void
StreamCacheController::chargeNoc(Packet& pkt, const NocResult& res)
{
    const Cycles intra =
        static_cast<Cycles>(res.intraHops) * noc_.params().intraHopCycles;
    pkt.bd.icnIntra += intra;
    pkt.bd.icnInter += (res.done - pkt.ready) - intra;
    pkt.ready = res.done;
}

void
StreamCacheController::chargeExt(Packet& pkt, Addr addr, std::uint32_t bytes,
                                 bool is_write)
{
    const CxlResult res =
        ext_.access(addr, bytes, is_write, pkt.ready, pkt.sid);
    pkt.bd.extMem += res.done - pkt.ready;
    pkt.ready = res.done;
    if (res.poisoned) {
        // Poisoned read: the host exception handler repairs the line
        // (re-materialises it from the source copy) and the access
        // completes with the repaired data after the penalty.
        ++poisonEscalations_;
        const Cycles penalty = fault_ != nullptr
            ? fault_->params().poisonPenaltyCycles
            : Cycles(0);
        pkt.ready += penalty;
        pkt.bd.extMem += penalty;
    }
}

void
StreamCacheController::extRoundTrip(UnitId unit, Packet& pkt, Addr addr,
                                    std::uint32_t bytes, bool is_write)
{
    chargeNoc(pkt, noc_.transferToCxl(unit, params_.reqBytes, pkt.ready,
                                      pkt.sid));
    chargeExt(pkt, addr, bytes, is_write);
    chargeNoc(pkt, noc_.transferFromCxl(unit, bytes, pkt.ready, pkt.sid));
}

void
StreamCacheController::extWriteThrough(UnitId unit, Packet& pkt, Addr addr,
                                       std::uint32_t bytes)
{
    chargeNoc(pkt, noc_.transferToCxl(unit, bytes, pkt.ready, pkt.sid));
    chargeExt(pkt, addr, bytes, true);
}

bool
StreamCacheController::eccFaultOnHit(bool hit)
{
    if (!hit || fault_ == nullptr || !fault_->dramBitFault()) {
        return false;
    }
    // ECC detected an uncorrectable bit fault in the cached copy: the
    // data is unusable and must be re-fetched from extended memory.
    ++dramFaults_;
    return true;
}

void
StreamCacheController::fetchFill(Packet& pkt, UnitId unit,
                                 const StreamConfig& cfg,
                                 std::uint64_t granule,
                                 const CacheLocation& loc)
{
    const std::uint32_t bytes = granuleFetchBytes(cfg);
    extRoundTrip(unit, pkt, granuleAddr(cfg, granule), bytes, false);

    // Install into the local DRAM row(s); critical word forwarded in
    // parallel, so the requester sees the fill completion time.
    const DramResult dr = dramAt(loc, bytes, true, pkt.ready, cfg.sid);
    pkt.bd.dramCache += dr.done - pkt.ready;
    pkt.ready = dr.done;
}

void
StreamCacheController::writebackVictim(UnitId unit, const StreamConfig& cfg,
                                       std::uint64_t victim_granule, Cycles t)
{
    // Off the critical path: reserve bandwidth, do not stall the
    // requester. The scratch packet's latency breakdown is discarded.
    Packet wb;
    wb.ready = t;
    wb.sid = cfg.sid; // the victim's stream owns the writeback energy
    extWriteThrough(unit, wb, granuleAddr(cfg, victim_granule),
                    granuleFetchBytes(cfg));
    ++writebacks_;
}

void
StreamCacheController::metadataLookup(UnitId unit, Packet& pkt)
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
        chargeNoc(pkt, noc_.transfer(unit, home, 32, pkt.ready, pkt.sid));
    }
    const DramResult dr = units_[home]->dram->access(
        key * 4, kCachelineBytes, false, pkt.ready);
    StreamRow& cost = ledger_[pkt.sid];
    cost.dramBytes += kCachelineBytes;
    if (!dr.rowHit) {
        ++cost.dramActivations;
    }
    pkt.bd.metadata += dr.done - pkt.ready;
    pkt.ready = dr.done;
    if (home != unit) {
        chargeNoc(pkt, noc_.transfer(home, unit, 32, pkt.ready, pkt.sid));
    }
}

void
StreamCacheController::raiseWriteException(StreamId sid)
{
    streams_.markWritten(sid);
    collapseReplication(sid);
    ++writeExceptions_;
}

void
StreamCacheController::recvAtomic(Packet& pkt)
{
    if (pkt.op == MemOp::Writeback) {
        handleWriteback(pkt);
        return;
    }
    handleAccess(pkt);
    pkt.bd.requests += 1;
    ledger_[pkt.sid].bd.merge(pkt.bd);
}

void
StreamCacheController::handleAccess(Packet& pkt)
{
    const UnitId u = pkt.src;
    NDP_ASSERT(u < units_.size(), "core=", pkt.src);

    if (params_.cachelineMode) {
        // Baselines: per-access metadata lookup instead of the SLB.
        metadataLookup(u, pkt);
    } else if (pkt.sid == kNoStream) {
        // SLB TCAM search finds no stream: bypass (rare, Section IV-C).
        pkt.ready += params_.slbHitCycles;
        pkt.bd.metadata += params_.slbHitCycles;
        sramEnergyNj_ += params_.slbPjPerLookup * 1e-3;
        ++ledger_[kNoStream].slbLookups;
        extRoundTrip(u, pkt, pkt.addr, kCachelineBytes, pkt.isWrite());
        return;
    } else {
        const Cycles slb_lat = units_[u]->slb.lookup(pkt.sid);
        pkt.ready += slb_lat;
        pkt.bd.metadata += slb_lat;
        sramEnergyNj_ += params_.slbPjPerLookup * 1e-3;
        ++ledger_[pkt.sid].slbLookups;
    }

    if (pkt.sid == kNoStream) {
        extRoundTrip(u, pkt, pkt.addr, kCachelineBytes, pkt.isWrite());
        return;
    }

    const StreamConfig& cfg = streams_.stream(pkt.sid);
    NDP_ASSERT(cfg.contains(pkt.addr), "access outside stream ", cfg.name);

    // Write to a read-only stream: host exception, collapse replicas.
    if (pkt.isWrite() && cfg.readOnly) {
        raiseWriteException(pkt.sid);
        pkt.ready += params_.writeExceptionCycles;
        pkt.bd.metadata += params_.writeExceptionCycles;
    }

    // Sampling hardware observes the (granule-level) access.
    const std::uint64_t granule = granuleForPacket(cfg, pkt);
    units_[u]->samplers.observe(pkt.sid, granule);

    accessCached(u, cfg, pkt);
}

void
StreamCacheController::accessCached(UnitId u, const StreamConfig& cfg,
                                    Packet& pkt)
{
    const std::uint64_t granule = granuleForPacket(cfg, pkt);

    if (remap_.groupSlots(cfg.sid, u) == 0) {
        // No cache space allocated (e.g., affine space restriction or
        // pre-first-epoch): stream directly from extended memory.
        ++uncached_;
        ++ledger_[cfg.sid].misses;
        extRoundTrip(u, pkt, pkt.addr, kCachelineBytes, pkt.isWrite());
        return;
    }

    const CacheLocation loc = remap_.locate(cfg.sid, granule, u);
    if (unitFailed(loc.unit)) {
        // The serving unit's cache slice is gone: degrade to an
        // extended-memory access instead of wedging. The runtime's
        // emergency reconfiguration will re-place the stream.
        ++failedRedirects_;
        ++uncached_;
        ++ledger_[cfg.sid].misses;
        extRoundTrip(u, pkt, pkt.addr, kCachelineBytes, pkt.isWrite());
        return;
    }
    const bool remote = loc.unit != u;

    if (remote) {
        chargeNoc(pkt, noc_.transfer(u, loc.unit, params_.reqBytes, pkt.ready,
                                     pkt.sid));
    }
    pkt.ready += params_.unitHandlerCycles;
    pkt.bd.metadata += params_.unitHandlerCycles;

    TagStore& ts = storeFor(loc.unit, cfg.sid);
    if (!ts.usable()) {
        ++uncached_;
        extRoundTrip(u, pkt, pkt.addr, kCachelineBytes, pkt.isWrite());
        return;
    }

    const bool is_write = pkt.isWrite();
    // Cacheline mode and affine streams resolve the tag before DRAM is
    // touched: the metadata lookup already did in cacheline mode, and
    // affine streams pay an SRAM tag-array lookup. Indirect streams keep
    // the tag with the data in DRAM.
    const bool tag_first =
        params_.cachelineMode || cfg.type == StreamType::Affine;
    TagStore::Result res;
    if (tag_first) {
        if (!params_.cachelineMode) {
            pkt.ready += params_.ataCycles;
            pkt.bd.metadata += params_.ataCycles;
            sramEnergyNj_ += params_.ataPjPerLookup * 1e-3;
            ++ledger_[cfg.sid].ataLookups;
        }
        res = ts.accessFill(loc.unitSlot, granule, is_write);
    } else {
        // Tag-with-data. Direct-mapped (default): one DRAM access
        // returns tag + data. Associative without prediction: one wider
        // access reads the whole set. With way prediction, read only the
        // predicted (MRU) way and pay a second access when a hit lands
        // in another way.
        const std::uint32_t set_factor =
            (params_.indirectWays > 1 && !params_.indirectWayPrediction)
            ? params_.indirectWays
            : 1;
        const std::uint32_t probe_bytes = std::min<std::uint32_t>(
            (granuleOf(cfg) + 8) * set_factor, rowBytes_);
        const DramResult dr =
            dramAt(loc, probe_bytes, is_write, pkt.ready, cfg.sid);
        pkt.bd.dramCache += dr.done - pkt.ready;
        pkt.ready = dr.done;

        res = ts.accessFill(loc.unitSlot, granule, is_write);
        if (params_.indirectWays > 1 && params_.indirectWayPrediction) {
            ++wayPredictions_;
            if (res.hit && res.way != res.predictedWay) {
                ++wayMispredictions_;
                const DramResult retry = dramAt(
                    loc,
                    std::min<std::uint32_t>(granuleOf(cfg) + 8, rowBytes_),
                    is_write, pkt.ready, cfg.sid);
                pkt.bd.dramCache += retry.done - pkt.ready;
                pkt.ready = retry.done;
            }
        }
    }
    if (res.hit && !eccFaultOnHit(true)) {
        ++ledger_[cfg.sid].hits;
        if (tag_first) {
            // The checked tag hit: one DRAM data access.
            const DramResult dr =
                dramAt(loc, kCachelineBytes, is_write, pkt.ready, cfg.sid);
            pkt.bd.dramCache += dr.done - pkt.ready;
            pkt.ready = dr.done;
        }
    } else {
        ++misses_;
        ++ledger_[cfg.sid].misses;
        if (!res.hit && res.evictedDirty) {
            writebackVictim(loc.unit, cfg, res.evictedKey, pkt.ready);
        }
        fetchFill(pkt, loc.unit, cfg, granule, loc);
    }

    if (remote) {
        chargeNoc(pkt, noc_.transfer(loc.unit, u, params_.rspBytes, pkt.ready,
                                     pkt.sid));
    }
}

void
StreamCacheController::handleWriteback(Packet& pkt)
{
    const UnitId u = pkt.src;
    const Addr line_addr = pkt.addr;
    const Cycles now = pkt.ready;
    const StreamId sid = streams_.findByAddr(line_addr);
    if (sid == kNoStream) {
        // Non-stream dirty line: write straight to extended memory.
        extWriteThrough(u, pkt, line_addr, kCachelineBytes);
        return;
    }
    const StreamConfig& cfg = streams_.stream(sid);
    pkt.sid = sid; // the owning stream pays the writeback energy
    if (cfg.readOnly) {
        raiseWriteException(sid);
    }
    if (remap_.groupSlots(sid, u) == 0) {
        extWriteThrough(u, pkt, line_addr, kCachelineBytes);
        return;
    }
    const std::uint64_t granule = params_.cachelineMode
        ? line_addr / kCachelineBytes
        : granuleIdOf(cfg, cfg.elemIdOf(line_addr));
    const CacheLocation loc = remap_.locate(sid, granule, u);
    if (unitFailed(loc.unit)) {
        // Serving unit is dead: write through to extended memory.
        ++failedRedirects_;
        extWriteThrough(u, pkt, line_addr, kCachelineBytes);
        return;
    }
    if (loc.unit != u) {
        chargeNoc(pkt, noc_.transfer(u, loc.unit, kCachelineBytes, pkt.ready,
                                     pkt.sid));
        pkt.ready = now; // fire-and-forget: requester is not stalled
    }
    TagStore& ts = storeFor(loc.unit, sid);
    if (ts.usable() && ts.probe(loc.unitSlot, granule)) {
        ts.accessFill(loc.unitSlot, granule, true); // mark dirty
        dramAt(loc, kCachelineBytes, true, now, sid);
    } else {
        // Not cached: write through to extended memory.
        extWriteThrough(loc.unit, pkt, line_addr, kCachelineBytes);
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
    const std::span<std::optional<TagStore>> stores = storesOf(sid);
    for (UnitId u = 0; u < units_.size(); ++u) {
        if (stores[u]) {
            invalidatedRows_ += remap_.alloc(sid)->shareRows[u];
            stores[u].reset();
        }
        units_[u]->slb.invalidate(sid);
    }
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
    for (std::uint32_t s = 0; s < streams_.numStreams(); ++s) {
        const StreamId sid = static_cast<StreamId>(s);
        std::optional<TagStore>& store = storesOf(sid)[unit];
        if (!store) {
            continue;
        }
        const StreamAlloc* alloc = remap_.alloc(sid);
        if (alloc != nullptr && unit < alloc->shareRows.size()) {
            invalidatedRows_ += alloc->shareRows[unit];
        }
        store.reset();
    }
    units_[unit]->slb.invalidateAll();
    units_[unit]->samplers.newEpoch();
}

std::uint64_t
StreamCacheController::failedUnitCount() const
{
    return static_cast<std::uint64_t>(
        std::count(unitFailed_.begin(), unitFailed_.end(), true));
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
        for (std::optional<TagStore>& store : storesOf(sid)) {
            store.reset();
        }
    }

    for (const auto& [sid, alloc] : allocs) {
        const StreamConfig& cfg = streams_.stream(sid);
        const std::uint32_t granule = granuleOf(cfg);
        const std::uint32_t ways = waysOf(cfg);

        // Move the outgoing stores aside to carry surviving rows over.
        const std::span<std::optional<TagStore>> stores = storesOf(sid);
        std::vector<std::optional<TagStore>> old_stores(stores.size());
        for (UnitId u = 0; u < stores.size(); ++u) {
            old_stores[u] = std::exchange(stores[u], std::nullopt);
        }
        const StreamAlloc* prev = remap_.alloc(sid);
        const std::uint64_t old_rows =
            prev != nullptr ? prev->totalRows() : 0;

        remap_.setAlloc(sid, alloc, granule, noc_);

        // Build fresh stores for every unit with space.
        for (UnitId u = 0; u < stores.size(); ++u) {
            const std::uint64_t slots = remap_.unitSlots(sid, u);
            if (slots != 0) {
                stores[u].emplace(slots, ways);
            }
        }

        // Carry rows preserved by consistent hashing.
        const auto& surviving = remap_.survivingRows(sid);
        const std::uint64_t sets_per_row = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(rowBytes_) / granule / ways);
        for (const auto& row : surviving) {
            const std::optional<TagStore>& from = old_stores[row.unit];
            std::optional<TagStore>& to = stores[row.unit];
            if (!from || !to) {
                continue;
            }
            to->copyRange(
                *from,
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
}

LatencyBreakdown
StreamCacheController::breakdown() const
{
    return ledger_.fold(LatencyBreakdown{},
                        [](LatencyBreakdown total, const StreamRow& row) {
                            total.merge(row.bd);
                            return total;
                        });
}

std::uint64_t
StreamCacheController::cacheHits() const
{
    return ledger_.fold(std::uint64_t{0},
                        [](std::uint64_t total, const StreamRow& row) {
                            return total + row.hits;
                        });
}

double
StreamCacheController::streamSramEnergyNj(StreamId sid) const
{
    const StreamRow& row = ledger_.at(sid);
    return static_cast<double>(row.slbLookups) * params_.slbPjPerLookup
        * 1e-3
        + static_cast<double>(row.ataLookups) * params_.ataPjPerLookup
        * 1e-3;
}

double
StreamCacheController::streamDramCacheEnergyNj(StreamId sid) const
{
    const StreamRow& row = ledger_.at(sid);
    return unitDramCfg_.timing.energyNj(row.dramBytes, row.dramActivations);
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
    if (wayPredictions_ == 0) {
        return 1.0;
    }
    return 1.0
        - static_cast<double>(wayMispredictions_)
            / static_cast<double>(wayPredictions_);
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
    return total;
}

void
StreamCacheController::counters(Counters& out, const std::string& prefix) const
{
    breakdownCounters(out, prefix + ".lat", [this] { return breakdown(); });
    const CounterScope add{out, prefix};
    add("hits", [this] { return double(cacheHits()); });
    add("misses", [this] { return double(cacheMisses()); });
    add("uncached", [this] { return double(uncachedStreamAccesses()); });
    add("bypasses", [this] { return double(bypasses()); });
    add("writeExceptions", [this] { return double(writeExceptions()); });
    add("writebacks", [this] { return double(writebacks_); });
    add("invalidatedRows", [this] { return double(invalidatedRows_); });
    add("survivedRows", [this] { return double(survivedRows_); });
    add("slbMisses", [this] { return double(slbMissTotal()); });
    add("degraded.failedUnitRedirects",
        [this] { return double(failedUnitRedirects()); });
    add("degraded.dramFaultRefetches",
        [this] { return double(dramFaultRefetches()); });
    add("degraded.poisonEscalations",
        [this] { return double(poisonEscalations()); });
    add("dramCacheEnergyNj", [this] { return dramCacheEnergyNj(); });
    add("sramEnergyNj", [this] { return sramEnergyNj(); });
    for (const auto& unit : units_) {
        unit->dram->counters(out, prefix + ".dram");
    }
    // Per-stream hit/miss counters feed ndpext_report's per-stream
    // hit-rate table.
    for (const StreamConfig& cfg : streams_.all()) {
        const StreamId sid = cfg.sid;
        const std::string base = "stream." + std::to_string(sid);
        add(base + ".hits", [this, sid] { return double(streamHits(sid)); });
        add(base + ".misses",
            [this, sid] { return double(streamMisses(sid)); });
    }
}

void
StreamCacheController::checkpoint(ckpt::Archive& ar)
{
    ar.section(0x0CAC);
    remap_.checkpoint(ar, noc_);
    ar.expect(units_.size(), "checkpoint unit-count mismatch");
    for (auto& unit : units_) {
        unit->dram->checkpoint(ar);
        unit->slb.checkpoint(ar);
        unit->samplers.checkpoint(ar);
        ar.expectFlag(unit->metaCache != nullptr,
                      "metadata-cache mode mismatch");
        if (unit->metaCache != nullptr) {
            unit->metaCache->checkpoint(ar);
        }
    }
    // A store's geometry is the restored allocation's unitSlots() and
    // the stream's ways, exactly as storeFor() and applyConfiguration()
    // build it, so only presence and contents travel.
    for (std::uint32_t s = 0; s < streams_.numStreams(); ++s) {
        const StreamId sid = static_cast<StreamId>(s);
        const std::span<std::optional<TagStore>> stores = storesOf(sid);
        for (UnitId u = 0; u < stores.size(); ++u) {
            bool present = stores[u].has_value();
            ar.b(present);
            if (ar.loading()) {
                stores[u].reset();
                if (present) {
                    stores[u].emplace(remap_.unitSlots(sid, u),
                                      waysOf(streams_.stream(sid)));
                }
            }
            if (present) {
                stores[u]->checkpoint(ar);
            }
        }
    }
    ar.seq(unitFailed_, [&](bool& failed) { ar.b(failed); });
    NDP_ASSERT(unitFailed_.size() == units_.size());
    ar.u64(misses_);
    ar.u64(uncached_);
    ar.u64(writeExceptions_);
    ar.u64(wayPredictions_);
    ar.u64(wayMispredictions_);
    ar.u64(writebacks_);
    ar.u64(failedRedirects_);
    ar.u64(dramFaults_);
    ar.u64(poisonEscalations_);
    ar.d(sramEnergyNj_);
    ledger_.checkpoint(ar, [&](StreamRow& row) {
        ar.u64(row.hits);
        ar.u64(row.misses);
        ar.bd(row.bd);
        ar.u64(row.slbLookups);
        ar.u64(row.ataLookups);
        ar.u64(row.dramBytes);
        ar.u64(row.dramActivations);
    });
    ar.u64(invalidatedRows_);
    ar.u64(survivedRows_);
}

} // namespace ndpext
