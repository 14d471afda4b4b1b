/**
 * @file
 * Open-loop arrival processes and the table of built-in ones.
 *
 * An ArrivalProcess turns a deterministic Rng into a sequence of
 * inter-arrival gaps (in core cycles); the serving frontend runs one
 * instance per (tenant, core) so arrival streams are independent across
 * cores and statistically identical across runs. Implementations live in
 * arrival_processes.cc, one row each in arrivalProcesses() -- the same
 * fixed NamedTable as memBackends(): CLI frontends enumerate it for
 * `--list-arrivals`, SystemConfig::validate checks names and tunable
 * keys against it (with an edit-distance did-you-mean on unknown names),
 * and createArrivalProcess() constructs by name.
 */

#ifndef NDPEXT_SERVING_ARRIVAL_PROCESS_H
#define NDPEXT_SERVING_ARRIVAL_PROCESS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/named_table.h"
#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

/**
 * Parameters handed to an arrival-process factory: the tenant's mean
 * inter-arrival period (cycles per request, per core) plus the
 * process-specific tunables that survived validation.
 */
struct ArrivalParams
{
    /** Mean cycles between request arrivals at one core. */
    double periodCycles = 0.0;
    /** Process-specific tunables (validated against the table). */
    std::vector<std::pair<std::string, double>> tunables;

    double
    get(const std::string& key, double fallback) const
    {
        for (const auto& [k, v] : tunables) {
            if (k == key) {
                return v;
            }
        }
        return fallback;
    }
};

/**
 * A deterministic generator of inter-arrival gaps. Gaps are >= 1 cycle,
 * so arrival times are strictly increasing. State (including the Rng)
 * checkpoints through one checkpoint() pass -- the serving generator's
 * state is restored exactly, never replayed.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Cycles until the next arrival after the previous one. */
    virtual Cycles nextGap() = 0;

    virtual void checkpoint(ckpt::Archive& ar) = 0;
};

/** One arrival-process implementation. */
struct ArrivalInfo
{
    std::string name;
    std::string description;
    /** Declared tunables (`--tenant=...,key=v`); unknown keys are a
     *  validation error. */
    std::vector<Tunable> tunables;
    std::function<std::unique_ptr<ArrivalProcess>(const ArrivalParams&,
                                                  std::uint64_t seed)>
        factory;
};

/** The built-in arrival processes, sorted by name. */
const NamedTable<ArrivalInfo>& arrivalProcesses();

/**
 * Construct a validated arrival process by name. Unknown names are
 * fatal here -- run SystemConfig::validate first for recoverable
 * diagnostics.
 */
std::unique_ptr<ArrivalProcess>
createArrivalProcess(const std::string& name, const ArrivalParams& params,
                     std::uint64_t seed);

} // namespace ndpext

#endif // NDPEXT_SERVING_ARRIVAL_PROCESS_H
