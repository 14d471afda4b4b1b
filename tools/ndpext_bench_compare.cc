/**
 * ndpext_bench_compare — continuous perf-regression gate.
 *
 * Compares two benchmark result files (a checked-in baseline from
 * bench/baselines/ vs. a fresh run) and exits nonzero when any tracked
 * metric moved beyond its tolerance, in either direction. An unexplained
 * improvement is just as suspicious as a slowdown: both mean the tree no
 * longer produces the numbers the baseline pins.
 *
 *   ndpext_bench_compare [--tolerance=REL] [--advisory=SUBSTR]...
 *                        BASELINE.json CURRENT.json
 *
 * Both benchmark JSON schemas used in this repo are accepted (see
 * bench/bench_util.h for the authoritative schema documentation):
 *
 *   A. StatGroup dumps — bench_util's --stats-json and ndpext_sim's
 *      --stats-json: a top-level object whose numeric members (including
 *      one level of nested objects such as "degraded" and the "stats"
 *      map) are flattened to dotted metric names.
 *   B. google-benchmark --benchmark_out JSON ("context" + "benchmarks"
 *      array): each entry becomes <name>.real_time, <name>.cpu_time,
 *      <name>.iterations plus any user counters.
 *
 * Tolerance model:
 *   - Simulated results (cycles, hits, energy, ...) are deterministic,
 *     so their default tolerance is 0: integral values must match
 *     exactly, non-integral values within 1e-9 relative (JSON text
 *     round-trip slack). --tolerance=REL widens both.
 *   - Wall-clock metrics (real_time, cpu_time, iterations, *_per_second,
 *     *Micros, *PerSec, plus --advisory=SUBSTR matches) are ADVISORY:
 *     printed, never failing. Machine speed is not a property of the tree.
 *   - A baseline metric missing from the current run is a failure; a new
 *     metric only in the current run is advisory (refresh the baseline).
 *
 * Exit status: 0 = within tolerance, 1 = regression, 2 = usage/IO error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "telemetry/tiny_json.h"

using namespace ndpext;

namespace {

constexpr const char* kUsage =
    "usage: ndpext_bench_compare [--tolerance=REL] [--advisory=SUBSTR]...\n"
    "                            BASELINE.json CURRENT.json\n"
    "  Compares benchmark metrics against a checked-in baseline; exits 1\n"
    "  when any non-advisory metric differs beyond tolerance (default:\n"
    "  exact for integers, 1e-9 relative for floats).\n";

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "ndpext_bench_compare: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(2);
}

/** Relative slack for float metrics at the default tolerance: absorbs
 *  JSON text round-trip differences, nothing more. */
constexpr double kFloatSlack = 1e-9;

/** Metric-name substrings that mark host-dependent (advisory) metrics. */
const char* kAdvisoryPatterns[] = {"real_time", "cpu_time", "iterations",
                                   "bytes_per_second", "items_per_second",
                                   "Micros", "PerSec"};

using MetricMap = std::map<std::string, double>;

json::ValuePtr
loadJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        usageError("cannot open '" + path + "'");
    }
    std::ostringstream body;
    body << in.rdbuf();
    std::string err;
    json::ValuePtr doc = json::parse(body.str(), &err);
    if (doc == nullptr) {
        std::fprintf(stderr, "ndpext_bench_compare: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    return doc;
}

/** Schema A: flatten numeric members, one nesting level deep. */
void
flattenStats(const json::Value& obj, const std::string& prefix,
             int depth, MetricMap& out)
{
    for (const auto& [name, value] : obj.object) {
        const std::string key = prefix.empty() ? name : prefix + "." + name;
        if (value->isNumber()) {
            out[key] = value->number;
        } else if (value->isObject() && depth < 2) {
            flattenStats(*value, key, depth + 1, out);
        }
    }
}

/** Schema B: google-benchmark's "benchmarks" array. */
void
flattenBenchmarks(const json::Value& benchmarks, MetricMap& out)
{
    for (const auto& entry : benchmarks.array) {
        if (entry == nullptr || !entry->isObject()) {
            continue;
        }
        const std::string name = entry->str("name");
        if (name.empty()) {
            continue;
        }
        for (const auto& [field, value] : entry->object) {
            // Skip bookkeeping fields that are not measurements.
            if (field == "name" || field == "run_name"
                || field == "family_index" || field == "repetition_index"
                || field == "per_family_instance_index"
                || field == "threads" || field == "repetitions") {
                continue;
            }
            if (value->isNumber()) {
                out[name + "." + field] = value->number;
            }
        }
    }
}

MetricMap
loadMetrics(const std::string& path)
{
    const json::ValuePtr doc = loadJson(path);
    if (!doc->isObject()) {
        usageError(path + ": expected a top-level JSON object");
    }
    MetricMap out;
    const json::Value* benchmarks = doc->get("benchmarks");
    if (benchmarks != nullptr && benchmarks->isArray()) {
        flattenBenchmarks(*benchmarks, out);
    } else {
        flattenStats(*doc, "", 0, out);
    }
    if (out.empty()) {
        usageError(path + ": no numeric metrics found (neither schema)");
    }
    return out;
}

bool
isAdvisory(const std::string& name,
           const std::vector<std::string>& extra_patterns)
{
    for (const char* pattern : kAdvisoryPatterns) {
        if (name.find(pattern) != std::string::npos) {
            return true;
        }
    }
    for (const std::string& pattern : extra_patterns) {
        if (name.find(pattern) != std::string::npos) {
            return true;
        }
    }
    return false;
}

bool
isIntegral(double v)
{
    return std::isfinite(v) && v == std::floor(v)
           && std::abs(v) < 9.007199254740992e15; // 2^53
}

} // namespace

int
main(int argc, char** argv)
{
    double tolerance = -1.0; // <0 = default model (exact / kFloatSlack)
    std::vector<std::string> advisory_patterns;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        }
        if (arg.rfind("--tolerance=", 0) == 0) {
            if (!parseReal(std::string_view(arg).substr(12), 0.0, kMaxReal,
                           &tolerance)) {
                usageError("bad --tolerance value '" + arg + "'");
            }
        } else if (arg.rfind("--advisory=", 0) == 0) {
            advisory_patterns.push_back(arg.substr(11));
        } else if (!arg.empty() && arg[0] == '-') {
            usageError("unknown flag '" + arg + "'");
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        usageError("expected exactly two files (baseline, current)");
    }

    const MetricMap baseline = loadMetrics(paths[0]);
    const MetricMap current = loadMetrics(paths[1]);

    std::printf("bench compare: %s (baseline) vs %s (current)\n",
                paths[0].c_str(), paths[1].c_str());
    std::printf("  %zu baseline metric(s), %zu current metric(s)\n\n",
                baseline.size(), current.size());

    std::size_t regressions = 0;
    std::size_t advisory_changes = 0;
    std::size_t unchanged = 0;
    std::printf("  %-44s %-16s %-16s %-12s %s\n", "metric", "baseline",
                "current", "rel-delta", "verdict");
    for (const auto& [name, base] : baseline) {
        const auto it = current.find(name);
        const bool advisory = isAdvisory(name, advisory_patterns);
        if (it == current.end()) {
            std::printf("  %-44s %-16.6g %-16s %-12s %s\n", name.c_str(),
                        base, "-", "-",
                        advisory ? "ADVISORY (missing)" : "FAIL (missing)");
            if (!advisory) {
                ++regressions;
            }
            continue;
        }
        const double cur = it->second;
        const double rel = base == 0.0
                               ? (cur == 0.0 ? 0.0 : 1.0)
                               : std::abs(cur - base) / std::abs(base);
        bool over;
        if (tolerance >= 0.0) {
            over = rel > tolerance;
        } else if (isIntegral(base) && isIntegral(cur)) {
            over = base != cur;
        } else {
            over = rel > kFloatSlack;
        }
        if (!over) {
            ++unchanged;
            continue; // keep the table to actual deltas
        }
        const char* verdict = advisory ? "advisory" : "FAIL";
        std::printf("  %-44s %-16.6g %-16.6g %-12.3e %s\n", name.c_str(),
                    base, cur, rel, verdict);
        if (advisory) {
            ++advisory_changes;
        } else {
            ++regressions;
        }
    }
    for (const auto& [name, cur] : current) {
        if (baseline.find(name) == baseline.end()) {
            std::printf("  %-44s %-16s %-16.6g %-12s %s\n", name.c_str(),
                        "-", cur, "-", "advisory (new; refresh baseline)");
            ++advisory_changes;
        }
    }

    std::printf("\n%zu metric(s) unchanged, %zu advisory change(s), "
                "%zu regression(s)\n",
                unchanged, advisory_changes, regressions);
    if (regressions > 0) {
        std::fprintf(stderr,
                     "ndpext_bench_compare: %zu metric(s) regressed vs %s; "
                     "if intentional, refresh the baseline (see "
                     "EXPERIMENTS.md, 'Performance tracking')\n",
                     regressions, paths[0].c_str());
        return 1;
    }
    std::printf("ok: current results match the baseline\n");
    return 0;
}
