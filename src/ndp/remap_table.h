/**
 * @file
 * The stream remap table: RShares, RRowBase, RGroups (Section IV-B,
 * Fig. 3b), plus the element-to-location resolution used by the hardware.
 *
 * For each stream, every NDP unit contributes `shareRows` DRAM rows of
 * cache space starting at `rowBase`. Units with nonzero shares are
 * partitioned into replication groups; each group independently caches one
 * copy of the stream. An accessing unit is served by one group (its
 * *serving group*: the member-weighted nearest one). Within a group,
 * elements map to (unit, row, slot) by hashing -- either plain modulo
 * hashing or consistent hashing (Section V-D), the latter keeping most
 * mappings stable across reconfigurations.
 */

#ifndef NDPEXT_NDP_REMAP_TABLE_H
#define NDPEXT_NDP_REMAP_TABLE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/noc_model.h"
#include "sim/checkpoint.h"
#include "stream/stream_table.h"

namespace ndpext {

/** How elements map to row locations within a replication group. */
enum class RemapMode : std::uint8_t
{
    Modulo,         ///< hash % slots (bulk invalidation on reconfig)
    ConsistentHash, ///< ring of (unit, row) spots (Section V-D)
};

/** Resolved cache location of one granule (element or affine block). */
struct CacheLocation
{
    UnitId unit = kNoUnit;
    /** Row index within the unit's local DRAM (absolute device row). */
    std::uint32_t deviceRow = 0;
    /** Slot index within the stream's allocation on that unit. */
    std::uint64_t unitSlot = 0;
};

/** Per-stream allocation: the RShares / RRowBase / RGroups triple. */
struct StreamAlloc
{
    /** DRAM rows allocated on each unit (RShares). */
    std::vector<std::uint32_t> shareRows;
    /** First device row of the allocation on each unit (RRowBase). */
    std::vector<std::uint32_t> rowBase;
    /** Replication group of each unit (RGroups); valid where shares > 0. */
    std::vector<std::uint16_t> groupOf;
    std::uint16_t numGroups = 0;

    explicit StreamAlloc(std::uint32_t num_units = 0)
        : shareRows(num_units, 0), rowBase(num_units, 0),
          groupOf(num_units, 0)
    {
    }

    std::uint64_t totalRows() const;
    std::uint64_t rowsOfGroup(std::uint16_t group) const;
    bool empty() const { return totalRows() == 0; }
};

/**
 * The runtime-owned remap table plus the per-(stream, group) lookup
 * machinery the SLBs conceptually cache.
 */
class StreamRemapTable
{
  public:
    /**
     * @param num_units     NDP unit count.
     * @param rows_per_unit DRAM-cache rows available per unit.
     * @param row_bytes     DRAM row size in bytes.
     */
    StreamRemapTable(std::uint32_t num_units, std::uint32_t rows_per_unit,
                     std::uint32_t row_bytes, RemapMode mode);

    std::uint32_t numUnits() const { return numUnits_; }
    std::uint32_t rowsPerUnit() const { return rowsPerUnit_; }
    std::uint32_t rowBytes() const { return rowBytes_; }
    RemapMode mode() const { return mode_; }

    /**
     * Install a new allocation for a stream. Shares are validated against
     * per-unit capacity across all installed streams.
     * @param granule_bytes caching granule of the stream (element size for
     *        indirect, block size for affine).
     */
    void setAlloc(StreamId sid, StreamAlloc alloc,
                  std::uint32_t granule_bytes, const NocModel& noc);

    /** Remove a stream's allocation. */
    void clearAlloc(StreamId sid);

    /** Current allocation, or nullptr if the stream has none. */
    const StreamAlloc* alloc(StreamId sid) const;

    /** Replication group serving accesses issued from `from_unit`. */
    std::uint16_t servingGroup(StreamId sid, UnitId from_unit) const;

    /**
     * Resolve the cache location of a granule for an access from
     * `from_unit`. Requires a non-empty serving group.
     */
    CacheLocation locate(StreamId sid, std::uint64_t granule_id,
                         UnitId from_unit) const;

    /** Slots the stream owns on `unit` (allocBytes / granule). */
    std::uint64_t unitSlots(StreamId sid, UnitId unit) const;

    /** Total slots of the group that serves `from_unit`. */
    std::uint64_t groupSlots(StreamId sid, UnitId from_unit) const;

    /** Rows still unallocated on a unit. */
    std::uint32_t freeRows(UnitId unit) const;

    /**
     * Panic if any unit's rows are over-committed. Run after a batch of
     * setAlloc calls (one reconfiguration); individual calls may
     * transiently overshoot while later streams still hold old space.
     */
    void validateCapacity() const;

    /**
     * Row spots (unit, deviceRow) of the stream's previous allocation that
     * persist in the current one with identical ring meaning -- the
     * consistent-hashing preservation the cache uses to carry tag
     * contents across a reconfiguration. Set by setAlloc and read right
     * after it, so checkpoints do not store it: a restored table reports
     * none until the next setAlloc.
     */
    struct SurvivingRow
    {
        UnitId unit;
        std::uint32_t oldRowOffset; ///< row index within old unit alloc
        std::uint32_t newRowOffset; ///< row index within new unit alloc
    };
    const std::vector<SurvivingRow>& survivingRows(StreamId sid) const;

    /**
     * Checkpoint pass. Only the authoritative per-stream allocations
     * and granules travel; group views, serving maps and usedRows_ are
     * rebuilt deterministically by buildViews() at restore (it sorts by
     * spot hash / unit id, so the rebuilt views are byte-identical).
     */
    void checkpoint(ckpt::Archive& ar, const NocModel& noc);

  private:
    struct GroupView
    {
        /** Member units ordered by id. */
        std::vector<UnitId> units;
        /** Slots per member (same order), and exclusive prefix sums. */
        std::vector<std::uint64_t> slots;
        std::vector<std::uint64_t> slotPrefix;
        std::uint64_t totalSlots = 0;
        /** Consistent-hash ring: sorted (hash, member index, row) spots. */
        struct Spot
        {
            std::uint64_t hash;
            std::uint32_t member;
            std::uint32_t rowOffset;
        };
        std::vector<Spot> ring;
        /**
         * Bucket index over the ring: the spots whose hash has top
         * `bucketBits` bits b sit at [bucketStart[b], bucketStart[b + 1]).
         */
        std::vector<std::uint32_t> bucketStart;
        unsigned bucketBits = 0;
    };

    struct Entry
    {
        StreamAlloc alloc;
        std::uint32_t granuleBytes = 0;
        std::vector<GroupView> groups;
        /** Serving group per from-unit. */
        std::vector<std::uint16_t> serving;
        std::vector<SurvivingRow> surviving;
        bool valid = false;
    };

    void buildViews(Entry& entry, StreamId sid, const NocModel& noc);
    void buildRing(GroupView& gv, StreamId sid,
                   const StreamAlloc& alloc) const;
    void computeSurvival(const Entry& old_entry, Entry& new_entry) const;

    std::uint64_t slotsOf(const StreamAlloc& alloc, UnitId unit,
                          std::uint32_t granule_bytes) const;

    std::uint32_t numUnits_;
    std::uint32_t rowsPerUnit_;
    std::uint32_t rowBytes_;
    RemapMode mode_;
    std::vector<Entry> entries_; // indexed by sid (grown on demand)
    std::vector<std::uint32_t> usedRows_;
};

} // namespace ndpext

#endif // NDPEXT_NDP_REMAP_TABLE_H
