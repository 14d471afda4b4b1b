/**
 * @file
 * Latency breakdown buckets shared by all cache-policy backends, matching
 * the categories of the paper's Fig. 2(a): metadata lookups, interconnect,
 * DRAM cache, and next-level (extended) memory. Core compute/L1 time is
 * tracked by the cores themselves.
 */

#ifndef NDPEXT_SIM_BREAKDOWN_H
#define NDPEXT_SIM_BREAKDOWN_H

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "sim/stats.h"

namespace ndpext {

struct LatencyBreakdown
{
    /** Metadata lookups: SLB/ATA (NDPExt) or tag metadata (baselines). */
    Cycles metadata = 0;
    /** Interconnect cycles, split by link class. */
    Cycles icnIntra = 0;
    Cycles icnInter = 0;
    /** DRAM-cache array access cycles. */
    Cycles dramCache = 0;
    /** Extended-memory (CXL + DDR5) cycles. */
    Cycles extMem = 0;
    /** Requests accounted. */
    std::uint64_t requests = 0;

    Cycles
    total() const
    {
        return metadata + icnIntra + icnInter + dramCache + extMem;
    }

    Cycles icn() const { return icnIntra + icnInter; }

    /** Accumulate another breakdown (e.g., a completed packet's). */
    void
    merge(const LatencyBreakdown& other)
    {
        metadata += other.metadata;
        icnIntra += other.icnIntra;
        icnInter += other.icnInter;
        dramCache += other.dramCache;
        extMem += other.extMem;
        requests += other.requests;
    }

    double
    avg(Cycles bucket) const
    {
        return requests == 0
            ? 0.0
            : static_cast<double>(bucket) / static_cast<double>(requests);
    }
};

/** One service stage of a LatencyBreakdown: its name and member. */
struct ServiceStage
{
    const char* name;
    Cycles LatencyBreakdown::*field;
};

/** The five service stages, in Fig. 2(a) (and checkpoint) order. */
inline constexpr ServiceStage kServiceStages[] = {
    {"metadata", &LatencyBreakdown::metadata},
    {"icnIntra", &LatencyBreakdown::icnIntra},
    {"icnInter", &LatencyBreakdown::icnInter},
    {"dramCache", &LatencyBreakdown::dramCache},
    {"extMem", &LatencyBreakdown::extMem},
};

/**
 * Declare the six LatencyBreakdown counters under `prefix` (the five
 * service stages, then requests); each reader calls `get` for the live
 * breakdown.
 */
inline void
breakdownCounters(Counters& out, const std::string& prefix,
                  const std::function<LatencyBreakdown()>& get)
{
    const CounterScope add{out, prefix};
    for (const ServiceStage& s : kServiceStages) {
        add(s.name, [get, field = s.field] { return double(get().*field); });
    }
    add("requests", [get] { return double(get().requests); });
}

} // namespace ndpext

#endif // NDPEXT_SIM_BREAKDOWN_H
