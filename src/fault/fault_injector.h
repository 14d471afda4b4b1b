/**
 * @file
 * Deterministic, seeded fault injection (the degraded-mode test harness).
 *
 * Real CXL.mem expanders must survive link errors and media poison, and a
 * co-located placement scheme must survive the death of a unit it placed
 * data on. The injector models three fault classes:
 *
 *  - CXL transient link errors: per-access Bernoulli draws; the endpoint
 *    retries with capped exponential backoff (each retry re-occupies link
 *    bandwidth and pays link latency again).
 *  - CXL media poison: per-read Bernoulli draws that permanently poison
 *    the touched cacheline; later reads of the line return poison and
 *    escalate to the runtime.
 *  - Whole-NDP-unit failures: schedule-driven (unit U dies at cycle N).
 *    The unit's DRAM-cache slice, tag stores and samplers become
 *    unusable; the runtime reconfigures around it out-of-epoch.
 *  - Transient DRAM bit faults in the stream cache: per-hit Bernoulli
 *    draws modelling an ECC-detected error; the granule is re-fetched
 *    from extended memory.
 *
 * All draws come from seeded xoshiro256** streams (one per fault class,
 * so enabling one class does not perturb another), making every faulty
 * run exactly reproducible: same spec + seed => identical stats.
 */

#ifndef NDPEXT_FAULT_FAULT_INJECTOR_H
#define NDPEXT_FAULT_FAULT_INJECTOR_H

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"

namespace ndpext {

/** One scheduled whole-unit failure. */
struct UnitFailure
{
    UnitId unit = kNoUnit;
    Cycles at = 0;
};

struct FaultParams
{
    std::uint64_t seed = 1;
    /** Per-access probability of a transient CXL link error. */
    double cxlTransientProb = 0.0;
    /** Per-read probability of (newly) poisoning the touched line. */
    double cxlPoisonProb = 0.0;
    /** Per-cache-hit probability of an ECC-detected DRAM bit fault. */
    double dramBitProb = 0.0;
    /** Scheduled unit failures (kept sorted by cycle by the injector). */
    std::vector<UnitFailure> unitFailures;
    /** Transient-error retries before the endpoint gives up recovering. */
    std::uint32_t maxLinkRetries = 4;
    /** Backoff before retry r is base << (r-1), capped below. */
    Cycles retryBackoffCycles = 64;
    Cycles retryBackoffCapCycles = 4096;
    /** Host-visible penalty for a poison escalation. */
    Cycles poisonPenaltyCycles = 2000;

    bool
    anyFaults() const
    {
        return cxlTransientProb > 0.0 || cxlPoisonProb > 0.0
            || dramBitProb > 0.0 || !unitFailures.empty();
    }
};

/**
 * Parse one --fault=SPEC value into `params`. Accepted specs:
 *
 *   unit:<id>@<cycle>       whole-unit failure (cycle takes K/M/G suffix)
 *   stack:<id>@<cycle>      expands to unit failures via units-per-stack
 *                           (resolved by the caller through stackUnits)
 *   cxl-transient:p=<prob>  transient link-error probability
 *   cxl-poison:p=<prob>     media-poison probability
 *   dram-bit:p=<prob>       stream-cache bit-fault probability
 *
 * @param units_per_stack needed only for stack:...; pass 0 to reject
 *        stack specs.
 * @return false and set *error on malformed input.
 */
bool parseFaultSpec(const std::string& spec, std::uint32_t units_per_stack,
                    FaultParams& params, std::string* error);

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultParams& params = FaultParams{});

    const FaultParams& params() const { return params_; }
    bool enabled() const { return params_.anyFaults(); }

    // --- per-access Bernoulli draws (deterministic in call order) ---

    /** Transient CXL link error on this transfer attempt? */
    bool linkError();

    /**
     * Media-poison check for a read of `addr`: returns true if the line
     * is already poisoned or the draw poisons it now (sticky).
     */
    bool poisonRead(Addr addr);

    /** True if the line holding `addr` has been poisoned. */
    bool isPoisoned(Addr addr) const;

    /** ECC-detected bit fault on this stream-cache hit? */
    bool dramBitFault();

    // --- scheduled unit failures ---

    /** Cycle of the next not-yet-fired failure; kNoFailure if none. */
    static constexpr Cycles kNoFailure = ~static_cast<Cycles>(0);
    Cycles nextFailureAt() const;

    /** Pop (fire) all scheduled failures with `at <= now`. */
    std::vector<UnitId> popFailuresUpTo(Cycles now);

    /** Has `unit` been failed (fired) already? */
    bool unitFailed(UnitId unit) const;

    std::uint32_t failedUnitCount() const
    {
        return static_cast<std::uint32_t>(failed_.size());
    }

    /** Cycle of the earliest *fired* failure; kNoFailure if none yet. */
    Cycles firstFailureAt() const { return firstFailureAt_; }

    // --- counters ---
    std::uint64_t linkErrorsInjected() const { return linkErrors_; }
    std::uint64_t linesPoisoned() const { return linesPoisoned_; }

    /** Declare the injection counters under `prefix`. */
    void counters(Counters& out, const std::string& prefix) const;

    /**
     * Checkpoint pass. The schedule itself is configuration; RNG
     * streams, the fired/poisoned sets (sorted for byte determinism)
     * and the schedule cursor travel.
     */
    void
    checkpoint(ckpt::Archive& ar)
    {
        ar.rng(linkRng_);
        ar.rng(poisonRng_);
        ar.rng(dramRng_);
        ar.map(poisonedLines_, [&](Addr& line) { ar.u64(line); });
        ar.map(failed_, [&](UnitId& unit) { ar.u32(unit); });
        ar.u64(nextFailure_);
        NDP_ASSERT(nextFailure_ <= params_.unitFailures.size(),
                   "failure cursor out of range");
        ar.u64(firstFailureAt_);
        ar.u64(linkErrors_);
        ar.u64(linesPoisoned_);
        ar.u64(dramFaults_);
    }

  private:
    FaultParams params_;
    Rng linkRng_;
    Rng poisonRng_;
    Rng dramRng_;
    std::unordered_set<Addr> poisonedLines_;
    std::unordered_set<UnitId> failed_;
    std::size_t nextFailure_ = 0;
    Cycles firstFailureAt_ = kNoFailure;

    std::uint64_t linkErrors_ = 0;
    std::uint64_t linesPoisoned_ = 0;
    std::uint64_t dramFaults_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_FAULT_FAULT_INJECTOR_H
