/**
 * @file
 * Multi-tenant serving configuration: tenant specs and their parsing.
 *
 * A tenant is declared on the ndpext_sim command line as a repeatable
 * `--tenant=key=val,key=val,...` flag:
 *
 *   --tenant=name=emb,workload=recsys,arrival=poisson,period=1500,
 *            qos=reserved,reserve-pct=25,slo=40000,req=64
 *
 * Recognized keys: name, workload, arrival, period (mean inter-arrival
 * cycles per core), req (accesses per request), qos
 * (reserved|best-effort), reserve-pct (percent of each unit's NDP-cache
 * rows carved out for this tenant), slo (per-request latency target in
 * cycles), arrive / depart (activity window in epoch numbers -- tenant
 * churn happens at epoch barriers), footprint-mb. Any other key must be
 * a tunable declared by the chosen arrival process (e.g. burst-factor);
 * unknown keys are recoverable validation errors with a did-you-mean.
 */

#ifndef NDPEXT_SERVING_SERVING_CONFIG_H
#define NDPEXT_SERVING_SERVING_CONFIG_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"
#include "serving/arrival_process.h"

namespace ndpext {

/** One co-located tenant of the serving frontend. */
struct TenantSpec
{
    std::string name;
    /** Workload archetype (any name from allWorkloadNames()). */
    std::string workload;
    /** Arrival process (any name in arrivalProcesses()). */
    std::string arrival = "poisson";
    /** Mean cycles between request arrivals at each core. */
    double periodCycles = 0.0;
    /** Accesses per request (one request = one generator burst). */
    std::uint32_t requestAccesses = 64;
    /** QoS class: reserved tenants get a private NDP-cache carve-out. */
    bool reserved = false;
    /** Percent of each unit's cache rows reserved for this tenant. */
    double reservePct = 0.0;
    /** Per-request latency SLO in cycles (p99 target). */
    Cycles sloCycles = 100'000;
    /** Activity window in epochs: [arriveEpoch, departEpoch). */
    std::uint64_t arriveEpoch = 0;
    std::uint64_t departEpoch = std::numeric_limits<std::uint64_t>::max();
    /** Dataset footprint; 0 = even share of the run's footprint. */
    std::uint64_t footprintBytes = 0;
    /** Leftover keys, passed to the arrival-process factory. */
    std::vector<std::pair<std::string, double>> arrivalTunables;
};

/** The serving frontend's full configuration (empty = disabled). */
struct ServingConfig
{
    std::vector<TenantSpec> tenants;
    /** No requests arrive at or past this cycle; the run then drains. */
    Cycles horizonCycles = 2'000'000;

    bool enabled() const { return !tenants.empty(); }
};

/** Most tenants a single serving run will co-locate. */
inline constexpr std::size_t kMaxTenants = 64;

/**
 * Parse one `--tenant=` value. Returns false with a diagnostic naming
 * the offending key in `*error`; name/workload semantic checks happen
 * in validateServingConfig (so parsing stays order-independent).
 */
bool parseTenantSpec(const std::string& spec, TenantSpec* out,
                     std::string* error);

/**
 * Validate a full serving config: tenant count bounds, positive arrival
 * rates, workload / arrival names (with did-you-mean), per-tenant
 * tunable keys, QoS reservations summing below unit capacity, and churn
 * windows. Recoverable: returns false with a named-flag diagnostic.
 */
bool validateServingConfig(const ServingConfig& cfg, std::string* error);

/** Fold every trajectory-shaping serving field into a config hash. */
void hashServingConfig(const ServingConfig& cfg, ckpt::Writer& w);

} // namespace ndpext

#endif // NDPEXT_SERVING_SERVING_CONFIG_H
