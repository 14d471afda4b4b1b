/**
 * @file
 * Runtime-decision introspection log (Section V / Algorithm 1 replay).
 *
 * Every configuration decision the host runtime takes -- the initial
 * placement, each epoch's reconfiguration, and out-of-epoch emergency
 * reconfigurations after unit failures -- is captured as one record:
 * the sampled per-stream miss curves that went *in*, the max-flow
 * sampler-to-stream assignment chosen for the next epoch, the extend/
 * merge/iteration counts Algorithm 1 performed, and the stream->unit
 * share allocation that came *out* (plus whether the stability guard
 * applied or skipped it). Two runs of Algorithm 1 can then be replayed
 * and diffed offline without rerunning the simulator.
 *
 * The log is deliberately decoupled from runtime types (plain structs)
 * so the telemetry library stays at the bottom of the dependency stack.
 * add() renders each record as it arrives, as JSONL: one record per
 * line, schema pinned by the ctest check (tools/ndpext_report check)
 * and documented in DESIGN.md §6.
 */

#ifndef NDPEXT_TELEMETRY_DECISION_LOG_H
#define NDPEXT_TELEMETRY_DECISION_LOG_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace ndpext {

struct DecisionRecord
{
    /** "initial" | "epoch" | "emergency". */
    std::string kind = "epoch";
    /** Epoch index (0 = initial configuration before cycle 0). */
    std::uint64_t epoch = 0;
    Cycles cycles = 0;

    /** One profiled input stream (what gatherDemands produced). */
    struct Demand
    {
        StreamId sid = 0;
        std::uint64_t footprintBytes = 0;
        std::uint32_t granuleBytes = 0;
        bool readOnly = true;
        bool affine = false;
        std::vector<UnitId> accUnits;
        std::vector<std::uint64_t> accCounts;
        /** Sampled miss curve: misses[i] expected at capacities[i] bytes. */
        std::vector<std::uint64_t> curveCapacities;
        std::vector<double> curveMisses;
    };
    std::vector<Demand> demands;

    /** Next epoch's sampler coverage: assignment[unit] = monitored sids. */
    std::vector<std::vector<StreamId>> samplerAssignment;
    std::vector<StreamId> uncoveredStreams;

    /** Algorithm 1 work counters (zero for non-NDPExt configurators). */
    std::uint64_t iterations = 0;
    std::uint64_t extends = 0;
    std::uint64_t merges = 0;

    /** The emitted configuration: rows per unit for each stream. */
    struct Alloc
    {
        StreamId sid = 0;
        std::vector<std::uint32_t> shareRows;
        std::uint16_t numGroups = 0;
    };
    std::vector<Alloc> allocs;

    /** False when the stability guard skipped applying the config. */
    bool applied = true;
};

class DecisionLog
{
  public:
    /** Records render into `os`, which must outlive the log. */
    explicit DecisionLog(std::ostream& os) : os_(os) {}

    /** Render one record as a JSON line (schema in DESIGN.md §6). */
    void add(const DecisionRecord& r);

  private:
    std::ostream& os_;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_DECISION_LOG_H
