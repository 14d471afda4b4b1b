/**
 * @file
 * The cache configuration algorithm (Section V-C, Algorithm 1).
 *
 * Co-optimizes sizing, placement, and replication in one iterative loop:
 *  - Sizing: repeatedly grow the stream whose miss curve has the steepest
 *    marginal utility (lookahead, as in UCP/Jigsaw), one geometric segment
 *    at a time, until curves flatten or space runs out.
 *  - Placement/replication: read-only streams start with one replication
 *    group per accessing unit (maximum replication, minimum distance).
 *    When a unit runs out of local rows the algorithm either *extends* the
 *    group to the nearest unit with space, or *merges* two replication
 *    groups of some stream to free duplicated rows -- whichever change has
 *    the higher utility. Utility weights cached bytes by the attenuation
 *    factor k = dramLat / (dramLat + icnLat) between accessor and holder.
 *  - Read-write streams keep a single global group (coherence).
 */

#ifndef NDPEXT_RUNTIME_CONFIG_ALGORITHM_H
#define NDPEXT_RUNTIME_CONFIG_ALGORITHM_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "ndp/remap_table.h"
#include "noc/noc_model.h"
#include "sampler/miss_curve.h"

namespace ndpext {

/** Sentinel for streams that belong to no serving tenant. */
inline constexpr std::uint32_t kNoQosTenant = ~0u;

/** Everything the algorithm knows about one stream. */
struct StreamDemand
{
    StreamId sid = kNoStream;
    MissCurve curve;
    /** Units that accessed the stream this epoch (the bitvectors). */
    std::vector<UnitId> accUnits;
    /** Access counts per accUnit (same order). */
    std::vector<std::uint64_t> accCounts;
    std::uint32_t granuleBytes = 64;
    bool readOnly = true;
    bool affine = false;
    /** Stream size: allocation beyond the footprint is useless. */
    std::uint64_t footprintBytes = 0;
    /**
     * QoS (multi-tenant serving, see src/serving): the owning tenant
     * and its class. Reserved tenants get `reservedRowsPerUnit` rows
     * carved out of every unit (shared among the tenant's streams);
     * best-effort streams -- including all non-serving workloads --
     * compete only for the remaining shared capacity. Defaults leave
     * the algorithm byte-identical with pre-QoS behaviour.
     */
    std::uint32_t tenant = kNoQosTenant;
    bool reserved = false;
    std::uint32_t reservedRowsPerUnit = 0;
};

/**
 * QoS attributes of one stream, precomputed by the system layer from
 * the serving config and attached to gathered demands every epoch.
 */
struct StreamQos
{
    StreamId sid = kNoStream;
    std::uint32_t tenant = kNoQosTenant;
    bool reserved = false;
    std::uint32_t reservedRowsPerUnit = 0;
};

struct ConfigParams
{
    std::uint32_t numUnits = 0;
    std::uint32_t rowsPerUnit = 0;
    std::uint32_t rowBytes = 2048;
    /** Per-unit cap on affine-stream rows (0 = unrestricted, Fig. 9c). */
    std::uint64_t affineCapBytesPerUnit = 0;
    /** Local DRAM hit latency used in the attenuation factor. */
    Cycles dramLatency = 40;
    /** Extend candidates examined per allocation failure. */
    std::uint32_t extendCandidates = 4;
    std::uint64_t maxIterations = 1 << 20;
    /**
     * Ablation switch: false forces every stream into a single global
     * replication group (placement/sizing co-optimization only).
     */
    bool allowReplication = true;
    /**
     * Anytime budget (deterministic): stop the refinement loop after
     * this many iterations and emit the best-so-far valid placement.
     * Every iteration boundary is a valid placement (the floor
     * allocation precedes the loop), so interruption never yields an
     * inconsistent configuration. 0 = unlimited. Counted, not timed,
     * so results are bit-identical across hosts.
     */
    std::uint64_t budgetIterations = 0;
};

class ConfigAlgorithm
{
  public:
    ConfigAlgorithm(const ConfigParams& params, const NocModel& noc);

    /**
     * Run the full optimization.
     * @return per-stream allocations (RShares/RGroups; RRowBase assigned by
     *         a per-unit bump allocator).
     */
    std::vector<std::pair<StreamId, StreamAlloc>>
    run(std::vector<StreamDemand> demands);

    /**
     * Mark units as failed: they are excluded from the capacity pool
     * (freeRows forced to 0) and from every demand's accessor set on
     * subsequent run() calls.
     */
    void setFailedUnits(std::vector<bool> failed)
    {
        failedUnits_ = std::move(failed);
    }

    /** Iterations executed by the last run (for reports/tests). */
    std::uint64_t lastIterations() const { return iterations_; }
    std::uint64_t lastExtends() const { return extends_; }
    std::uint64_t lastMerges() const { return merges_; }
    /** Runs cut short by either budget (cumulative across runs). */
    std::uint64_t budgetHits() const { return budgetHits_; }
    /** True if the last run() stopped on a budget rather than converging. */
    bool lastBudgetHit() const { return lastBudgetHit_; }
    /**
     * Placement quality of the last run(): total cache bytes placed,
     * summed over every emitted share. Deterministic, monotone in the
     * refinement loop, and directly comparable between a full solve and
     * a budget-capped one (bounded-regret checks).
     */
    std::uint64_t lastObjectiveBytes() const { return lastObjective_; }

  private:
    struct Group
    {
        /** Rows held per member unit. */
        std::map<UnitId, std::uint32_t> rows;
        bool dead = false;

        std::uint64_t totalRows() const;
    };

    struct SState
    {
        StreamDemand d;
        std::vector<Group> groups;
        /** Group index holding this stream's rows on a unit (-1: none). */
        std::vector<std::int32_t> groupOfUnit;
        /**
         * Initial replica group of each accessor index. Capacity headroom
         * bounds the starting degree: a stream may begin with at most as
         * many copies as half the machine could hold of its footprint, so
         * scarce capacity starts consolidated and hot small streams still
         * replicate everywhere.
         */
        std::vector<std::int32_t> initGroupOf;
        /** Current per-copy curve position in bytes. */
        std::uint64_t posBytes = 0;
        bool exhausted = false;
        std::uint64_t totalAccesses = 0;
        /** Round-robin cursor for read-write target selection. */
        std::size_t rwCursor = 0;
        /**
         * servingGroup of each accessor index, filled by servingGroups()
         * and cleared whenever a group's rows or liveness change.
         */
        mutable std::vector<std::int32_t> servedBy;
    };

    bool canAlloc(const StreamDemand& d, UnitId unit,
                  std::uint32_t rows) const;
    void doAlloc(SState& s, std::int32_t group, UnitId unit,
                 std::uint32_t rows);

    /**
     * QoS class accounting. Each reserved tenant owns a per-unit row
     * carve-out; everything else (best-effort tenants and non-serving
     * streams) shares `rowsPerUnit - totalReservedRows_`. A reserved
     * tenant draws from its own carve-out first and only its overflow
     * counts against the shared pool. All-zero when no demand carries
     * a reservation, making the checks no-ops.
     */
    struct TenantCap
    {
        std::uint32_t reservedRows = 0;
        /** Rows this tenant currently holds per unit. */
        std::vector<std::uint32_t> used;
    };
    /** Rows the demand would take from the shared pool on `unit`. */
    std::uint32_t sharedNeed(const StreamDemand& d, UnitId unit,
                             std::uint32_t rows) const;
    void classAlloc(const StreamDemand& d, UnitId unit,
                    std::uint32_t rows);
    void classFree(const StreamDemand& d, UnitId unit,
                   std::uint32_t rows);
    std::uint32_t sharedCapacity() const
    {
        return params_.rowsPerUnit - totalReservedRows_;
    }

    /** Weighted utility of a group for its assigned accessors. */
    double groupUtility(const SState& s, std::int32_t g) const;
    /** Accessor units currently served by group g. */
    std::vector<std::size_t> accessorsOf(const SState& s,
                                         std::int32_t g) const;
    /** Group index serving accesses from accUnits[idx]. */
    std::int32_t servingGroup(const SState& s, std::size_t acc_idx) const;
    /** servingGroup of every accessor index, memoized in the state. */
    const std::vector<std::int32_t>& servingGroups(const SState& s) const;

    /** Live group that new allocation for accUnits[idx] should join. */
    std::int32_t groupForUnit(SState& s, std::size_t acc_idx);

    /** Attenuation factor between two units. */
    double atten(UnitId from, UnitId to) const;

    struct ExtendPlan
    {
        UnitId unit = kNoUnit;
        double gain = -1.0;
    };
    ExtendPlan bestExtend(const SState& s, std::int32_t g, UnitId near,
                          std::uint32_t rows) const;

    struct MergePlan
    {
        std::size_t stream = 0; ///< index into states_
        std::int32_t groupA = -1;
        std::int32_t groupB = -1;
        double gain = -1.0;
        bool valid = false;
    };
    MergePlan bestMerge(UnitId uid, const SState& current,
                        std::int32_t cur_group, std::uint32_t rows_needed,
                        double place_gain);
    /** Execute the merge; returns rows freed on `uid`. */
    std::uint32_t applyMerge(const MergePlan& plan, UnitId uid);

    std::vector<std::pair<StreamId, StreamAlloc>> emit();

    ConfigParams params_;
    const NocModel& noc_;

    std::vector<SState> states_;
    std::vector<std::uint32_t> freeRows_;
    /** QoS working state, rebuilt from demands on every run(). */
    std::map<std::uint32_t, TenantCap> tenantCaps_;
    std::uint32_t totalReservedRows_ = 0;
    std::vector<std::uint32_t> sharedUsed_;
    /** Per-unit failed flag (empty = all healthy). */
    std::vector<bool> failedUnits_;
    std::vector<std::uint64_t> affineBytesUsed_;
    std::uint64_t iterations_ = 0;
    std::uint64_t extends_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t budgetHits_ = 0;
    bool lastBudgetHit_ = false;
    std::uint64_t lastObjective_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_RUNTIME_CONFIG_ALGORITHM_H
