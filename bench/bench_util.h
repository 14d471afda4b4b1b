/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: argument
 * parsing, the standard workload/policy matrix, and table printing.
 *
 * Every bench binary prints the rows/series of one paper figure or table.
 * Absolute numbers come from this repo's simulator, not the authors'
 * testbed; the reproduction target is the *shape* (ordering, rough
 * factors, crossovers). See EXPERIMENTS.md.
 *
 * --stats-json emits one of two schemas, both consumed by
 * tools/ndpext_bench_compare (and pinned under bench/baselines/):
 *
 *   A. StatGroup dump (this file's finishStats(), and ndpext_sim):
 *        { "stats": { "<metric>": <number>, ... } }
 *      ndpext_sim additionally places scalars ("cycles", "energyNj",
 *      ...) and one nested object ("degraded") at the top level; the
 *      comparer flattens those to dotted names. All values are
 *      deterministic simulation results, so baselines compare exactly.
 *
 *   B. google-benchmark --benchmark_out JSON (bench_fig04_maxflow,
 *      whose main() translates --stats-json into --benchmark_out):
 *        { "context": {...}, "benchmarks": [ { "name": ...,
 *          "real_time": ..., "cpu_time": ..., "iterations": ...,
 *          <user counters> }, ... ] }
 *      Entries become "<name>.<field>" metrics. Wall-clock fields are
 *      host-dependent and therefore advisory in comparisons.
 */

#ifndef NDPEXT_BENCH_BENCH_UTIL_H
#define NDPEXT_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/host_system.h"
#include "system/ndp_system.h"
#include "workloads/workload.h"

namespace ndpext {
namespace bench {

struct BenchArgs
{
    /** Smaller runs for smoke testing (--quick). */
    bool quick = false;
    /** NDP memory type (--mem=hbm|hmc). */
    NdpMemType memType = NdpMemType::Hbm3;
    /** Sub-experiment selector (--exp=...). */
    std::string exp;
    /** Workload filter (--workloads=pr,bfs,...). Empty = bench default. */
    std::vector<std::string> workloads;
    /** Write recorded results as JSON (--stats-json=FILE). Empty = off. */
    std::string statsJson;

    static BenchArgs parse(int argc, char** argv);
};

/** The standard scaled system configuration used by every figure. */
SystemConfig benchConfig(const BenchArgs& args);

/** Standard workload parameters for the scaled system. */
WorkloadParams benchWorkloadParams(const BenchArgs& args,
                                   std::uint32_t num_cores);

/** Prepare one workload (cached per name within a process). */
Workload& preparedWorkload(const std::string& name, const BenchArgs& args,
                           std::uint32_t num_cores);

/** Run one NDP policy on a prepared workload. */
RunResult runPolicy(const SystemConfig& cfg, PolicyKind policy,
                    const Workload& workload);

/**
 * Same run with a telemetry observer attached (may be null). Telemetry
 * is observer-only, so the RunResult -- and every recorded baseline
 * column -- is identical to the plain overload's.
 */
RunResult runPolicy(const SystemConfig& cfg, PolicyKind policy,
                    const Workload& workload, Telemetry* telemetry);

/** Run the non-NDP host baseline on a prepared workload. */
RunResult runHost(const Workload& workload);

/** The representative subset used by the analysis figures (Figs. 7-9). */
const std::vector<std::string>& analysisWorkloads();

/** Geometric mean helper. */
double geomean(const std::vector<double>& values);

/**
 * Record one named result for --stats-json. Table::addRow records its
 * cells automatically ("<row label>.<column>"); benches that print
 * free-form text call this for their headline numbers.
 */
void recordStat(const std::string& name, double value);

/**
 * Write every recorded stat as one JSON object to args.statsJson (no-op
 * when the flag was not given) and return the process exit code, so
 * mains end with `return bench::finishStats(args);`.
 */
int finishStats(const BenchArgs& args);

/** Print a header row followed by aligned numeric rows. */
class Table
{
  public:
    explicit Table(std::vector<std::string> columns);

    void addRow(const std::string& label,
                const std::vector<double>& values);
    void print() const;

  private:
    std::vector<std::string> columns_;
    std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

} // namespace bench
} // namespace ndpext

#endif // NDPEXT_BENCH_BENCH_UTIL_H
