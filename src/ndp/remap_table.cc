#include "ndp/remap_table.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"

namespace ndpext {

namespace {

/** Hash seed per stream so different streams interleave differently. */
std::uint64_t
streamSeed(StreamId sid)
{
    return mix64(0x5757ULL + sid);
}

/**
 * Virtual ring spots per DRAM row: smooths consistent-hash arcs. Scaled
 * with the row size so ring construction stays cheap for small-row
 * technologies (HMC vaults use 256 B rows).
 */
std::uint32_t
virtualSpotsPerRow(std::uint32_t row_bytes)
{
    const std::uint32_t v = row_bytes / 256;
    return std::max<std::uint32_t>(1, std::min<std::uint32_t>(8, v));
}

/** Ring spot identity: stable across epochs for the same logical row. */
std::uint64_t
spotHash(StreamId sid, UnitId unit, std::uint32_t row_offset,
         std::uint32_t vnode)
{
    return mix64((static_cast<std::uint64_t>(sid) << 48)
                 ^ (static_cast<std::uint64_t>(unit) << 32)
                 ^ (static_cast<std::uint64_t>(vnode) << 24) ^ row_offset);
}

} // namespace

std::uint64_t
StreamAlloc::totalRows() const
{
    return std::accumulate(shareRows.begin(), shareRows.end(),
                           std::uint64_t{0});
}

std::uint64_t
StreamAlloc::rowsOfGroup(std::uint16_t group) const
{
    std::uint64_t rows = 0;
    for (std::size_t u = 0; u < shareRows.size(); ++u) {
        if (shareRows[u] > 0 && groupOf[u] == group) {
            rows += shareRows[u];
        }
    }
    return rows;
}

StreamRemapTable::StreamRemapTable(std::uint32_t num_units,
                                   std::uint32_t rows_per_unit,
                                   std::uint32_t row_bytes, RemapMode mode)
    : numUnits_(num_units), rowsPerUnit_(rows_per_unit),
      rowBytes_(row_bytes), mode_(mode), usedRows_(num_units, 0)
{
    NDP_ASSERT(num_units > 0 && rows_per_unit > 0 && row_bytes > 0);
}

std::uint64_t
StreamRemapTable::slotsOf(const StreamAlloc& alloc, UnitId unit,
                          std::uint32_t granule_bytes) const
{
    return static_cast<std::uint64_t>(alloc.shareRows[unit]) * rowBytes_
        / granule_bytes;
}

void
StreamRemapTable::buildViews(Entry& entry, StreamId sid, const NocModel& noc)
{
    const StreamAlloc& alloc = entry.alloc;
    entry.groups.assign(alloc.numGroups, GroupView{});

    for (UnitId u = 0; u < numUnits_; ++u) {
        if (alloc.shareRows[u] == 0) {
            continue;
        }
        const std::uint16_t g = alloc.groupOf[u];
        NDP_ASSERT(g < alloc.numGroups, "sid=", sid, " bad group ", g);
        GroupView& gv = entry.groups[g];
        const std::uint64_t slots = slotsOf(alloc, u, entry.granuleBytes);
        gv.units.push_back(u);
        gv.slots.push_back(slots);
        gv.slotPrefix.push_back(gv.totalSlots);
        gv.totalSlots += slots;
        if (mode_ == RemapMode::ConsistentHash) {
            const std::uint32_t vnodes = virtualSpotsPerRow(rowBytes_);
            for (std::uint32_t r = 0; r < alloc.shareRows[u]; ++r) {
                for (std::uint32_t v = 0; v < vnodes; ++v) {
                    gv.ring.push_back(GroupView::Spot{
                        spotHash(sid, u, r, v),
                        static_cast<std::uint32_t>(gv.units.size() - 1),
                        r});
                }
            }
        }
    }
    for (auto& gv : entry.groups) {
        std::sort(gv.ring.begin(), gv.ring.end(),
                  [](const GroupView::Spot& a, const GroupView::Spot& b) {
                      return a.hash < b.hash;
                  });
    }

    // Serving group per from-unit: slot-weighted nearest group.
    entry.serving.assign(numUnits_, 0);
    for (UnitId from = 0; from < numUnits_; ++from) {
        double best = -1.0;
        std::uint16_t best_g = 0;
        for (std::uint16_t g = 0; g < alloc.numGroups; ++g) {
            const GroupView& gv = entry.groups[g];
            if (gv.totalSlots == 0) {
                continue;
            }
            double lat = 0.0;
            for (std::size_t m = 0; m < gv.units.size(); ++m) {
                lat += static_cast<double>(gv.slots[m])
                    * static_cast<double>(noc.pureLatency(from, gv.units[m]));
            }
            lat /= static_cast<double>(gv.totalSlots);
            if (best < 0.0 || lat < best) {
                best = lat;
                best_g = g;
            }
        }
        entry.serving[from] = best_g;
    }
}

void
StreamRemapTable::computeSurvival(Entry& old_entry, Entry& new_entry,
                                  StreamId sid)
{
    (void)sid;
    new_entry.survivalFraction = 0.0;
    new_entry.surviving.clear();
    if (!old_entry.valid) {
        return;
    }
    const std::uint64_t old_rows = old_entry.alloc.totalRows();
    if (old_rows == 0) {
        return;
    }

    if (mode_ == RemapMode::Modulo) {
        // Modulo hashing rehashes everything unless the allocation is
        // bit-identical (then no reconfiguration happened at all).
        if (old_entry.alloc.shareRows == new_entry.alloc.shareRows
            && old_entry.alloc.groupOf == new_entry.alloc.groupOf) {
            new_entry.survivalFraction = 1.0;
            for (UnitId u = 0; u < numUnits_; ++u) {
                for (std::uint32_t r = 0; r < new_entry.alloc.shareRows[u];
                     ++r) {
                    new_entry.surviving.push_back(SurvivingRow{u, r, r});
                }
            }
        }
        return;
    }

    // Consistent hashing: a logical row spot (unit, rowOffset) that exists
    // in both allocations keeps (approximately) the same key population.
    std::uint64_t survived = 0;
    for (UnitId u = 0; u < numUnits_; ++u) {
        const std::uint32_t common = std::min(
            old_entry.alloc.shareRows[u], new_entry.alloc.shareRows[u]);
        for (std::uint32_t r = 0; r < common; ++r) {
            new_entry.surviving.push_back(SurvivingRow{u, r, r});
        }
        survived += common;
    }
    new_entry.survivalFraction =
        static_cast<double>(survived) / static_cast<double>(old_rows);
}

void
StreamRemapTable::setAlloc(StreamId sid, StreamAlloc alloc,
                           std::uint32_t granule_bytes, const NocModel& noc)
{
    NDP_ASSERT(alloc.shareRows.size() == numUnits_, "sid=", sid);
    NDP_ASSERT(granule_bytes > 0);
    if (entries_.size() <= sid) {
        entries_.resize(sid + 1);
    }

    Entry fresh;
    fresh.alloc = std::move(alloc);
    fresh.granuleBytes = granule_bytes;
    fresh.valid = true;
    buildViews(fresh, sid, noc);
    computeSurvival(entries_[sid], fresh, sid);
    entries_[sid] = std::move(fresh);

    // Recompute per-unit usage. A batch of setAlloc calls may transiently
    // overshoot while old allocations of later streams are still in
    // place; callers run validateCapacity() after the batch.
    std::fill(usedRows_.begin(), usedRows_.end(), 0);
    for (const Entry& e : entries_) {
        if (!e.valid) {
            continue;
        }
        for (UnitId u = 0; u < numUnits_; ++u) {
            usedRows_[u] += e.alloc.shareRows[u];
        }
    }
}

void
StreamRemapTable::validateCapacity() const
{
    for (UnitId u = 0; u < numUnits_; ++u) {
        NDP_ASSERT(usedRows_[u] <= rowsPerUnit_, "unit ", u,
                   " over-allocated: ", usedRows_[u], " of ", rowsPerUnit_);
    }
}

void
StreamRemapTable::clearAlloc(StreamId sid)
{
    if (sid >= entries_.size() || !entries_[sid].valid) {
        return;
    }
    for (UnitId u = 0; u < numUnits_; ++u) {
        usedRows_[u] -= entries_[sid].alloc.shareRows[u];
    }
    Entry empty;
    entries_[sid] = std::move(empty);
}

const StreamAlloc*
StreamRemapTable::alloc(StreamId sid) const
{
    if (sid >= entries_.size() || !entries_[sid].valid) {
        return nullptr;
    }
    return &entries_[sid].alloc;
}

std::uint16_t
StreamRemapTable::servingGroup(StreamId sid, UnitId from_unit) const
{
    NDP_ASSERT(sid < entries_.size() && entries_[sid].valid);
    return entries_[sid].serving[from_unit];
}

CacheLocation
StreamRemapTable::locate(StreamId sid, std::uint64_t granule_id,
                         UnitId from_unit) const
{
    NDP_ASSERT(sid < entries_.size() && entries_[sid].valid,
               "locate on unallocated sid=", sid);
    const Entry& e = entries_[sid];
    const GroupView& gv = e.groups[e.serving[from_unit]];
    NDP_ASSERT(gv.totalSlots > 0, "locate in empty group, sid=", sid);

    const std::uint64_t h = mix64(granule_id ^ streamSeed(sid));
    CacheLocation loc;

    if (mode_ == RemapMode::Modulo || gv.ring.empty()) {
        const std::uint64_t idx = h % gv.totalSlots;
        // Find the member owning slot idx via the prefix sums.
        std::size_t m = gv.units.size() - 1;
        for (std::size_t i = 1; i < gv.units.size(); ++i) {
            if (idx < gv.slotPrefix[i]) {
                m = i - 1;
                break;
            }
        }
        const std::uint64_t local = idx - gv.slotPrefix[m];
        loc.unit = gv.units[m];
        loc.unitSlot = local;
        loc.deviceRow = e.alloc.rowBase[loc.unit]
            + static_cast<std::uint32_t>(local * e.granuleBytes
                                         / rowBytes_);
        return loc;
    }

    // Consistent hashing: first spot with hash >= h, wrapping.
    auto it = std::lower_bound(
        gv.ring.begin(), gv.ring.end(), h,
        [](const GroupView::Spot& s, std::uint64_t key) {
            return s.hash < key;
        });
    if (it == gv.ring.end()) {
        it = gv.ring.begin();
    }
    const std::size_t m = it->member;
    loc.unit = gv.units[m];
    if (e.granuleBytes <= rowBytes_) {
        const std::uint64_t slots_per_row = rowBytes_ / e.granuleBytes;
        loc.unitSlot = static_cast<std::uint64_t>(it->rowOffset)
                * slots_per_row
            + mix64(h) % slots_per_row;
        loc.deviceRow = e.alloc.rowBase[loc.unit] + it->rowOffset;
    } else {
        // Blocks larger than a row: the spot's row selects the block slot
        // containing it.
        const std::uint64_t rows_per_granule =
            e.granuleBytes / rowBytes_;
        std::uint64_t slot = it->rowOffset / rows_per_granule;
        const std::uint64_t slots = gv.slots[m];
        if (slot >= slots) {
            slot = slots == 0 ? 0 : slots - 1;
        }
        loc.unitSlot = slot;
        loc.deviceRow = e.alloc.rowBase[loc.unit]
            + static_cast<std::uint32_t>(slot * rows_per_granule);
    }
    return loc;
}

std::uint64_t
StreamRemapTable::unitSlots(StreamId sid, UnitId unit) const
{
    const StreamAlloc* a = alloc(sid);
    if (a == nullptr) {
        return 0;
    }
    return slotsOf(*a, unit, entries_[sid].granuleBytes);
}

std::uint64_t
StreamRemapTable::groupSlots(StreamId sid, UnitId from_unit) const
{
    if (sid >= entries_.size() || !entries_[sid].valid) {
        return 0;
    }
    const Entry& e = entries_[sid];
    if (e.groups.empty()) {
        return 0;
    }
    return e.groups[e.serving[from_unit]].totalSlots;
}

std::uint32_t
StreamRemapTable::freeRows(UnitId unit) const
{
    NDP_ASSERT(unit < numUnits_);
    return usedRows_[unit] >= rowsPerUnit_
        ? 0
        : rowsPerUnit_ - usedRows_[unit];
}

std::uint32_t
StreamRemapTable::usedRows(UnitId unit) const
{
    NDP_ASSERT(unit < numUnits_);
    return usedRows_[unit];
}

double
StreamRemapTable::lastSurvivalFraction(StreamId sid) const
{
    if (sid >= entries_.size() || !entries_[sid].valid) {
        return 0.0;
    }
    return entries_[sid].survivalFraction;
}

const std::vector<StreamRemapTable::SurvivingRow>&
StreamRemapTable::survivingRows(StreamId sid) const
{
    static const std::vector<SurvivingRow> kEmpty;
    if (sid >= entries_.size() || !entries_[sid].valid) {
        return kEmpty;
    }
    return entries_[sid].surviving;
}

void
StreamRemapTable::serialize(ckpt::Writer& w) const
{
    w.u64(entries_.size());
    for (const Entry& e : entries_) {
        w.b(e.valid);
        if (!e.valid) {
            continue;
        }
        w.vecU32(e.alloc.shareRows);
        w.vecU32(e.alloc.rowBase);
        w.u64(e.alloc.groupOf.size());
        for (const std::uint16_t g : e.alloc.groupOf) {
            w.u32(g);
        }
        w.u32(e.alloc.numGroups);
        w.u32(e.granuleBytes);
        w.d(e.survivalFraction);
        w.u64(e.surviving.size());
        for (const SurvivingRow& s : e.surviving) {
            w.u32(s.unit);
            w.u32(s.oldRowOffset);
            w.u32(s.newRowOffset);
        }
    }
}

void
StreamRemapTable::deserialize(ckpt::Reader& r, const NocModel& noc)
{
    const std::uint64_t n = r.u64();
    entries_.assign(n, Entry());
    std::fill(usedRows_.begin(), usedRows_.end(), 0);
    for (std::size_t sid = 0; sid < entries_.size(); ++sid) {
        Entry& e = entries_[sid];
        e.valid = r.b();
        if (!e.valid) {
            continue;
        }
        e.alloc = StreamAlloc(numUnits_);
        e.alloc.shareRows = r.vecU32();
        e.alloc.rowBase = r.vecU32();
        const std::uint64_t gn = r.u64();
        e.alloc.groupOf.assign(gn, 0);
        for (std::uint16_t& g : e.alloc.groupOf) {
            g = static_cast<std::uint16_t>(r.u32());
        }
        e.alloc.numGroups = static_cast<std::uint16_t>(r.u32());
        NDP_ASSERT(e.alloc.shareRows.size() == numUnits_
                       && e.alloc.rowBase.size() == numUnits_
                       && e.alloc.groupOf.size() == numUnits_,
                   "remap allocation unit-count mismatch");
        e.granuleBytes = r.u32();
        e.survivalFraction = r.d();
        const std::uint64_t sn = r.u64();
        e.surviving.assign(sn, SurvivingRow{});
        for (SurvivingRow& s : e.surviving) {
            s.unit = static_cast<UnitId>(r.u32());
            s.oldRowOffset = r.u32();
            s.newRowOffset = r.u32();
        }
        buildViews(e, static_cast<StreamId>(sid), noc);
        for (UnitId u = 0; u < numUnits_; ++u) {
            usedRows_[u] += e.alloc.shareRows[u];
        }
    }
}

} // namespace ndpext
