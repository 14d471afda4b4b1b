/**
 * @file
 * Set-based hardware miss-curve samplers (Section V-A) and the per-unit
 * sampler bank with the stream-access bitvector (Section V-B).
 *
 * NDPExt's DRAM cache is hash-indexed with low associativity, so capacity
 * is partitioned along sets and the stack property does not hold; each
 * sampler therefore simulates c = 64 independent capacity cases spanning a
 * geometric range, sampling k = 32 sets per case via static interleaving
 * and counting hits/misses on single-tag shadow sets. A sampler costs
 * 32 x 64 x 4 B = 8 kB of SRAM; four fit in each unit (32 kB).
 */

#ifndef NDPEXT_SAMPLER_SAMPLER_H
#define NDPEXT_SAMPLER_SAMPLER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sampler/miss_curve.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"

namespace ndpext {

struct SamplerParams
{
    /** Sampled sets per capacity case (k). */
    std::uint32_t kSets = 32;
    /** Number of capacity cases (c). */
    std::uint32_t numCapacities = 64;
    /** Smallest simulated capacity in bytes (paper: 32 kB). */
    std::uint64_t minCapacityBytes = 32_KiB;
    /** Largest simulated capacity (paper: full 256 MB unit DRAM). */
    std::uint64_t maxCapacityBytes = 256_MiB;
};

/** One hardware sampler: derives the miss curve for one stream. */
class MissCurveSampler
{
  public:
    explicit MissCurveSampler(const SamplerParams& params);

    /** (Re)assign the sampler to a stream and clear its shadow sets. */
    void configure(StreamId sid, std::uint32_t granule_bytes);

    bool assigned() const { return sid_ != kNoStream; }
    StreamId sid() const { return sid_; }

    /** Observe one access to the stream (granule id in access order). */
    void observe(std::uint64_t granule_id);

    /** Accesses observed (pre-sampling). */
    std::uint64_t accesses() const { return accesses_; }

    /**
     * Build the stream's miss curve, scaled so the curve represents
     * `total_stream_accesses` accesses (the global count; this sampler saw
     * only its own unit's share of them).
     */
    MissCurve curve(std::uint64_t total_stream_accesses) const;

    const SamplerParams& params() const { return params_; }
    const std::vector<std::uint64_t>& capacities() const
    {
        return capacities_;
    }

    /** Checkpoint pass (params/capacity points are configuration). */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.u32(sid_);
        ar.u32(granuleBytes_);
        // cases_ is dynamic state: empty while unassigned, one per
        // capacity point once configure() ran.
        ar.seq(cases_, [&](CapacityCase& c) {
            ar.u64(c.totalSlots);
            ar.u64(c.sampleStep);
            ar.seq(c.tags, [&](std::uint64_t& t) { ar.u64(t); });
            ar.u64(c.observed);
            ar.u64(c.hits);
        });
        ar.u64(accesses_);
    }

  private:
    struct CapacityCase
    {
        std::uint64_t totalSlots = 0;
        std::uint64_t sampleStep = 1; ///< slot % step == 0 is sampled
        std::vector<std::uint64_t> tags; ///< kSets single-tag shadow sets
        std::uint64_t observed = 0;
        std::uint64_t hits = 0;
    };

    SamplerParams params_;
    std::vector<std::uint64_t> capacities_; ///< geometric points
    StreamId sid_ = kNoStream;
    std::uint32_t granuleBytes_ = 0;
    std::vector<CapacityCase> cases_;
    std::uint64_t accesses_ = 0;
};

/**
 * The per-unit sampling hardware: S = 4 samplers and per-stream access
 * counters, whose nonzero entries form the 512-bit bitvector of streams
 * accessed this epoch. The counters reach only as far as the highest
 * stream id the unit observed since the last newEpoch().
 */
class SamplerBank
{
  public:
    SamplerBank(std::uint32_t num_samplers, const SamplerParams& params);

    /**
     * Install the epoch's assignments: stream (and its caching granule)
     * per sampler slot; kNoStream leaves a slot idle.
     */
    void assign(const std::vector<std::pair<StreamId, std::uint32_t>>&
                    stream_granules);

    /** Record an access from this unit to `sid`. */
    void observe(StreamId sid, std::uint64_t granule_id);

    /** Was `sid` accessed this epoch (its bit in the bitvector)? */
    bool accessed(StreamId sid) const { return accessCount(sid) > 0; }

    /** Per-stream access count from this unit this epoch. */
    std::uint64_t accessCount(StreamId sid) const;

    const MissCurveSampler* samplerFor(StreamId sid) const;

    /** Clear the counters for the next epoch (samplers keep state until
     *  reassigned). Every epoch barrier calls it before taking a
     *  checkpoint, so each image holds an empty counter list. */
    void newEpoch();

    /** Checkpoint pass. */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.expect(samplers_.size(), "sampler count mismatch");
        for (MissCurveSampler& s : samplers_) {
            s.checkpoint(ar);
        }
        ar.seq(counts_, [&](std::uint64_t& n) { ar.u64(n); });
    }

  private:
    std::vector<MissCurveSampler> samplers_;
    std::vector<std::uint64_t> counts_;
};

} // namespace ndpext

#endif // NDPEXT_SAMPLER_SAMPLER_H
