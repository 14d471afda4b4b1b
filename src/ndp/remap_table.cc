#include "ndp/remap_table.h"

#include <algorithm>
#include <bit>
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

/**
 * Rows a unit may give one ring: row offsets fill spotHash's low 24 bits,
 * so the spot hashes of one ring stay distinct.
 */
constexpr std::uint32_t kMaxRingRows = 1u << 24;

/** Ring spot identity: stable across epochs for the same logical row. */
std::uint64_t
spotHash(StreamId sid, UnitId unit, std::uint32_t row_offset,
         std::uint32_t vnode)
{
    return mix64((static_cast<std::uint64_t>(sid) << 48)
                 ^ (static_cast<std::uint64_t>(unit) << 32)
                 ^ (static_cast<std::uint64_t>(vnode) << 24) ^ row_offset);
}

/** Ring bucket of a hash: its top `bits` bits (no bits: one bucket). */
std::size_t
bucketOf(std::uint64_t hash, unsigned bits)
{
    // Two shifts, so that bits = 0 never shifts a 64-bit word by 64.
    return static_cast<std::size_t>((hash >> 1) >> (63 - bits));
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
    }
    if (mode_ == RemapMode::ConsistentHash) {
        for (GroupView& gv : entry.groups) {
            buildRing(gv, sid, alloc);
        }
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
StreamRemapTable::buildRing(GroupView& gv, StreamId sid,
                            const StreamAlloc& alloc) const
{
    // Spot hashes are distinct (mix64 is a bijection and spotHash packs
    // row, vnode and unit into separate bit fields), so any correct sort
    // gives the same ring. This one is linear: count the spots into fine
    // buckets by their top hash bits, write each straight to its fine
    // bucket's next index, then finish with one insertion pass. That pass
    // moves each spot only within its fine bucket, which holds about one
    // spot, so its branches rarely mispredict.
    const std::uint32_t vnodes = virtualSpotsPerRow(rowBytes_);
    std::uint64_t spots = 0;
    for (const UnitId u : gv.units) {
        NDP_ASSERT(alloc.shareRows[u] <= kMaxRingRows, "sid=", sid, " unit ",
                   u, ": ", alloc.shareRows[u],
                   " rows overflow the ring's 24-bit row field");
        spots += std::uint64_t{alloc.shareRows[u]} * vnodes;
    }
    NDP_ASSERT(spots <= UINT32_MAX, "sid=", sid, ": ", spots,
               " ring spots overflow the bucket index");
    const auto forEachSpot = [&](auto&& fn) {
        for (std::uint32_t m = 0; m < gv.units.size(); ++m) {
            const UnitId u = gv.units[m];
            for (std::uint32_t r = 0; r < alloc.shareRows[u]; ++r) {
                for (std::uint32_t v = 0; v < vnodes; ++v) {
                    fn(GroupView::Spot{spotHash(sid, u, r, v), m, r});
                }
            }
        }
    };

    // The index's buckets hold about four spots (at most 2^29 buckets, as
    // spots < 2^32); fine buckets split each into four.
    gv.bucketBits = std::bit_width(std::max<std::uint64_t>(1, spots / 4)) - 1;
    const unsigned fine_bits = gv.bucketBits + 2;
    // Counts go to [f + 2]; after the prefix sum [f + 1] is fine bucket
    // f's write cursor, and after the writes it is its end.
    std::vector<std::uint32_t> fine((std::size_t{1} << fine_bits) + 2, 0);
    forEachSpot([&](const GroupView::Spot& s) {
        ++fine[bucketOf(s.hash, fine_bits) + 2];
    });
    std::partial_sum(fine.begin(), fine.end(), fine.begin());
    std::vector<GroupView::Spot>& ring = gv.ring;
    ring.resize(spots);
    forEachSpot([&](const GroupView::Spot& s) {
        ring[fine[bucketOf(s.hash, fine_bits) + 1]++] = s;
    });
    for (std::size_t i = 1; i < ring.size(); ++i) {
        const GroupView::Spot s = ring[i];
        std::size_t j = i;
        for (; j > 0 && ring[j - 1].hash > s.hash; --j) {
            ring[j] = ring[j - 1];
        }
        ring[j] = s;
    }
    // Bucket b of the index is fine buckets 4b .. 4b + 3.
    const std::size_t buckets = std::size_t{1} << gv.bucketBits;
    gv.bucketStart.resize(buckets + 1);
    for (std::size_t b = 0; b <= buckets; ++b) {
        gv.bucketStart[b] = fine[b << 2];
    }
}

void
StreamRemapTable::computeSurvival(const Entry& old_entry,
                                  Entry& new_entry) const
{
    new_entry.surviving.clear();
    if (!old_entry.valid || old_entry.alloc.totalRows() == 0) {
        return;
    }

    if (mode_ == RemapMode::Modulo) {
        // Modulo hashing rehashes everything unless the allocation is
        // bit-identical (then no reconfiguration happened at all).
        if (old_entry.alloc.shareRows == new_entry.alloc.shareRows
            && old_entry.alloc.groupOf == new_entry.alloc.groupOf) {
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
    for (UnitId u = 0; u < numUnits_; ++u) {
        const std::uint32_t common = std::min(
            old_entry.alloc.shareRows[u], new_entry.alloc.shareRows[u]);
        for (std::uint32_t r = 0; r < common; ++r) {
            new_entry.surviving.push_back(SurvivingRow{u, r, r});
        }
    }
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
    computeSurvival(entries_[sid], fresh);
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

    // Consistent hashing: first spot with hash >= h, wrapping. Every spot
    // of a later bucket hashes above h, so the scan stops inside h's
    // bucket or at the first spot after it.
    const std::size_t b = bucketOf(h, gv.bucketBits);
    std::size_t i = gv.bucketStart[b];
    while (i < gv.bucketStart[b + 1] && gv.ring[i].hash < h) {
        ++i;
    }
    const GroupView::Spot& spot = gv.ring[i == gv.ring.size() ? 0 : i];
    const std::size_t m = spot.member;
    loc.unit = gv.units[m];
    if (e.granuleBytes <= rowBytes_) {
        const std::uint64_t slots_per_row = rowBytes_ / e.granuleBytes;
        loc.unitSlot = static_cast<std::uint64_t>(spot.rowOffset)
                * slots_per_row
            + mix64(h) % slots_per_row;
        loc.deviceRow = e.alloc.rowBase[loc.unit] + spot.rowOffset;
    } else {
        // Blocks larger than a row: the spot's row selects the block slot
        // containing it.
        const std::uint64_t rows_per_granule =
            e.granuleBytes / rowBytes_;
        std::uint64_t slot = spot.rowOffset / rows_per_granule;
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
StreamRemapTable::checkpoint(ckpt::Archive& ar, const NocModel& noc)
{
    if (ar.loading()) {
        std::fill(usedRows_.begin(), usedRows_.end(), 0);
    }
    StreamId sid = 0;
    ar.seq(entries_, [&](Entry& e) {
        const StreamId id = sid++;
        ar.b(e.valid);
        if (!e.valid) {
            return;
        }
        StreamAlloc& a = e.alloc;
        ar.seq(a.shareRows, [&](std::uint32_t& rows) { ar.u32(rows); });
        ar.seq(a.rowBase, [&](std::uint32_t& row) { ar.u32(row); });
        ar.seq(a.groupOf, [&](std::uint16_t& g) { ar.u32(g); });
        ar.u32(a.numGroups);
        NDP_ASSERT(a.shareRows.size() == numUnits_
                       && a.rowBase.size() == numUnits_
                       && a.groupOf.size() == numUnits_,
                   "remap allocation unit-count mismatch");
        ar.u32(e.granuleBytes);
        if (ar.loading()) {
            buildViews(e, id, noc);
            for (UnitId u = 0; u < numUnits_; ++u) {
                usedRows_[u] += a.shareRows[u];
            }
        }
    });
}

} // namespace ndpext
