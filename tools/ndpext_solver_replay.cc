/**
 * @file
 * Replay recorded placement decisions through the cold and warm-start
 * solvers and assert placement-quality parity.
 *
 * Input is a DecisionLog (PREFIX.decisions.jsonl from `ndpext_sim
 * --telemetry=PREFIX`). For every consecutive pair of decisions the tool
 *   1. rebuilds the sampler-assignment graph from the recorded demands,
 *   2. solves it cold (from scratch) and warm (seeded with the previous
 *      decision's replayed assignment, re-solving only the delta set
 *      derived from demand fingerprints -- the same derivation the
 *      runtime uses), and
 *   3. checks that both cover exactly the same number of streams, and
 *      that an empty delta reproduces the previous assignment
 *      bit-identically with zero augmenting paths.
 *
 * With --budget-iters=N it additionally replays Algorithm 1 per decision
 * at full precision and with the deterministic anytime budget, reporting
 * the objective regret and failing if it exceeds --max-regret-pct.
 *
 * Exit codes: 0 parity holds, 1 parity/regret violation, 2 usage or
 * input error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "runtime/ndp_runtime.h"
#include "runtime/sampler_assign.h"
#include "telemetry/tiny_json.h"

namespace {

using namespace ndpext;

constexpr const char* kUsage =
    "usage: ndpext_solver_replay PREFIX|FILE.decisions.jsonl [options]\n"
    "\n"
    "Re-run recorded placement decisions through cold and warm-start\n"
    "solvers, asserting placement-quality parity.\n"
    "\n"
    "options:\n"
    "  --samplers=N        samplers per unit (default 4)\n"
    "  --budget-iters=N    also replay Algorithm 1 full vs budget-capped\n"
    "  --max-regret-pct=P  fail when the budget-capped objective drops\n"
    "                      more than P%% below the full solve (default 50)\n"
    "  --rows-per-unit=N   capacity for the Algorithm 1 replay (default\n"
    "                      256 rows)\n"
    "  --row-bytes=N       row size for the Algorithm 1 replay (default\n"
    "                      2048)\n"
    "  -v                  per-decision detail\n";

[[noreturn]] void
usageError(const std::string& msg)
{
    std::fprintf(stderr, "ndpext_solver_replay: %s\n%s", msg.c_str(),
                 kUsage);
    std::exit(2);
}

struct Options
{
    std::string input;
    std::uint32_t samplers = 4;
    std::uint64_t budgetIters = 0;
    double maxRegretPct = 50.0;
    std::uint32_t rowsPerUnit = 256;
    std::uint32_t rowBytes = 2048;
    bool verbose = false;
};

/** The count after `prefix`; a usage error unless it fits T. */
template <typename T>
T
number(const std::string& arg, const char* prefix)
{
    T v = 0;
    if (!parseCount(std::string_view(arg).substr(std::strlen(prefix)), &v)) {
        usageError("bad number in " + arg);
    }
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "-v") {
            opt.verbose = true;
        } else if (arg.rfind("--samplers=", 0) == 0) {
            opt.samplers = number<std::uint32_t>(arg, "--samplers=");
        } else if (arg.rfind("--budget-iters=", 0) == 0) {
            opt.budgetIters = number<std::uint64_t>(arg, "--budget-iters=");
        } else if (arg.rfind("--max-regret-pct=", 0) == 0) {
            if (!parseReal(std::string_view(arg).substr(
                               std::strlen("--max-regret-pct=")),
                           -kMaxReal, kMaxReal, &opt.maxRegretPct)) {
                usageError("bad number in " + arg);
            }
        } else if (arg.rfind("--rows-per-unit=", 0) == 0) {
            opt.rowsPerUnit = number<std::uint32_t>(arg, "--rows-per-unit=");
        } else if (arg.rfind("--row-bytes=", 0) == 0) {
            opt.rowBytes = number<std::uint32_t>(arg, "--row-bytes=");
        } else if (!arg.empty() && arg[0] == '-') {
            usageError("unknown option " + arg);
        } else if (opt.input.empty()) {
            opt.input = arg;
        } else {
            usageError("more than one input given");
        }
    }
    if (opt.input.empty()) {
        usageError("missing decision-log prefix");
    }
    if (opt.samplers == 0) {
        usageError("bad --samplers: 0");
    }
    return opt;
}

/** One decision, rebuilt from its JSONL record. */
struct Decision
{
    std::string kind;
    std::uint64_t epoch = 0;
    std::vector<StreamDemand> demands;
    std::uint32_t numUnits = 0;
};

std::vector<std::uint64_t>
u64Array(const json::Value* v)
{
    std::vector<std::uint64_t> out;
    if (v != nullptr && v->isArray()) {
        out.reserve(v->array.size());
        for (const auto& e : v->array) {
            out.push_back(static_cast<std::uint64_t>(e->number));
        }
    }
    return out;
}

std::vector<double>
dArray(const json::Value* v)
{
    std::vector<double> out;
    if (v != nullptr && v->isArray()) {
        out.reserve(v->array.size());
        for (const auto& e : v->array) {
            out.push_back(e->number);
        }
    }
    return out;
}

bool
loadDecisions(const std::string& path, std::vector<Decision>& out,
              std::string* err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<json::ValuePtr> lines;
    if (!json::parseLines(buf.str(), lines, err)) {
        return false;
    }
    for (const auto& rec : lines) {
        Decision d;
        d.kind = rec->str("kind");
        d.epoch = static_cast<std::uint64_t>(rec->num("epoch"));
        const json::Value* assign = rec->get("samplerAssignment");
        d.numUnits = assign == nullptr
            ? 0
            : static_cast<std::uint32_t>(assign->array.size());
        const json::Value* demands = rec->get("demands");
        if (demands != nullptr) {
            for (const auto& jd : demands->array) {
                StreamDemand sd;
                sd.sid = static_cast<StreamId>(jd->num("sid"));
                sd.footprintBytes =
                    static_cast<std::uint64_t>(jd->num("footprintBytes"));
                sd.granuleBytes =
                    static_cast<std::uint32_t>(jd->num("granuleBytes"));
                const json::Value* ro = jd->get("readOnly");
                sd.readOnly = ro != nullptr && ro->boolean;
                const json::Value* af = jd->get("affine");
                sd.affine = af != nullptr && af->boolean;
                for (const std::uint64_t u :
                     u64Array(jd->get("accUnits"))) {
                    sd.accUnits.push_back(static_cast<UnitId>(u));
                }
                sd.accCounts = u64Array(jd->get("accCounts"));
                const json::Value* curve = jd->get("curve");
                if (curve != nullptr) {
                    sd.curve =
                        MissCurve(u64Array(curve->get("capacities")),
                                  dArray(curve->get("misses")));
                }
                d.demands.push_back(std::move(sd));
            }
        }
        out.push_back(std::move(d));
    }
    if (out.empty()) {
        *err = "no decision records in " + path;
        return false;
    }
    return true;
}

/** Accessed bitvectors + deterministic stream order for one decision. */
struct AssignInput
{
    std::vector<std::vector<bool>> accessed;
    std::vector<StreamId> streams;
};

AssignInput
assignInput(const Decision& d)
{
    AssignInput in;
    StreamId max_sid = 0;
    std::uint32_t units = d.numUnits;
    for (const StreamDemand& sd : d.demands) {
        max_sid = std::max(max_sid, sd.sid);
        for (const UnitId u : sd.accUnits) {
            units = std::max(units, u + 1);
        }
    }
    in.accessed.assign(units, std::vector<bool>(max_sid + 1, false));
    std::set<StreamId> sids;
    for (const StreamDemand& sd : d.demands) {
        sids.insert(sd.sid);
        for (const UnitId u : sd.accUnits) {
            in.accessed[u][sd.sid] = true;
        }
    }
    in.streams.assign(sids.begin(), sids.end());
    return in;
}

/** Delta set between two decisions, from demand fingerprints. */
std::vector<StreamId>
deltaBetween(const Decision& prev, const Decision& cur)
{
    std::map<StreamId, std::uint64_t> before;
    for (const StreamDemand& d : prev.demands) {
        before[d.sid] = demandFingerprint(d);
    }
    std::set<StreamId> delta;
    std::set<StreamId> now;
    for (const StreamDemand& d : cur.demands) {
        now.insert(d.sid);
        const auto it = before.find(d.sid);
        if (it == before.end() || it->second != demandFingerprint(d)) {
            delta.insert(d.sid);
        }
    }
    for (const auto& [sid, fp] : before) {
        (void)fp;
        if (now.count(sid) == 0) {
            delta.insert(sid);
        }
    }
    return {delta.begin(), delta.end()};
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    std::string path = opt.input;
    if (path.size() < 6
        || path.compare(path.size() - 6, 6, ".jsonl") != 0) {
        path += ".decisions.jsonl";
    }

    std::vector<Decision> decisions;
    std::string err;
    if (!loadDecisions(path, decisions, &err)) {
        std::fprintf(stderr, "ndpext_solver_replay: %s\n", err.c_str());
        return 2;
    }

    const SamplerAssigner assigner(opt.samplers);
    SamplerAssignment prev;
    bool have_prev = false;
    std::uint64_t cold_aug = 0;
    std::uint64_t warm_aug = 0;
    std::uint64_t seeded = 0;
    std::uint64_t warm_solves = 0;
    std::uint64_t empty_deltas = 0;
    bool ok = true;

    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const Decision& d = decisions[i];
        if (d.demands.empty()) {
            continue;
        }
        const AssignInput in = assignInput(d);
        SamplerAssignStats cold_stats;
        const SamplerAssignment cold =
            assigner.assign(in.accessed, in.streams, &cold_stats);
        cold_aug += cold_stats.augmentingPaths;

        if (have_prev) {
            const std::vector<StreamId> delta =
                deltaBetween(decisions[i - 1], d);
            SamplerAssignStats warm_stats;
            const SamplerAssignment warm = assigner.assignWarm(
                in.accessed, in.streams, prev, delta, &warm_stats);
            warm_aug += warm_stats.augmentingPaths;
            seeded += warm_stats.seededPairs;
            ++warm_solves;
            if (warm.covered != cold.covered) {
                std::fprintf(stderr,
                             "PARITY FAIL decision %zu (%s, epoch %llu): "
                             "cold covers %llu, warm covers %llu\n",
                             i, d.kind.c_str(),
                             static_cast<unsigned long long>(d.epoch),
                             static_cast<unsigned long long>(cold.covered),
                             static_cast<unsigned long long>(warm.covered));
                ok = false;
            }
            if (delta.empty()) {
                ++empty_deltas;
                if (warm.perUnit != prev.perUnit) {
                    std::fprintf(stderr,
                                 "PARITY FAIL decision %zu: empty delta "
                                 "but warm assignment differs from the "
                                 "previous epoch\n",
                                 i);
                    ok = false;
                }
                if (warm_stats.augmentingPaths != 0) {
                    std::fprintf(stderr,
                                 "PARITY FAIL decision %zu: empty delta "
                                 "but %llu augmenting path(s) ran\n",
                                 i,
                                 static_cast<unsigned long long>(
                                     warm_stats.augmentingPaths));
                    ok = false;
                }
            }
            if (opt.verbose) {
                std::printf("  decision %zu: streams=%zu delta=%zu "
                            "seeded=%llu cold_aug=%llu warm_aug=%llu\n",
                            i, in.streams.size(), delta.size(),
                            static_cast<unsigned long long>(
                                warm_stats.seededPairs),
                            static_cast<unsigned long long>(
                                cold_stats.augmentingPaths),
                            static_cast<unsigned long long>(
                                warm_stats.augmentingPaths));
            }
        }
        prev = cold;
        have_prev = true;
    }

    // Optional Algorithm 1 replay: full vs deterministic budget.
    std::uint64_t full_objective = 0;
    std::uint64_t capped_objective = 0;
    std::uint64_t full_iters = 0;
    std::uint64_t capped_iters = 0;
    if (opt.budgetIters != 0) {
        std::uint32_t units = 0;
        for (const Decision& d : decisions) {
            units = std::max(units, d.numUnits);
            for (const StreamDemand& sd : d.demands) {
                for (const UnitId u : sd.accUnits) {
                    units = std::max(units, u + 1);
                }
            }
        }
        if (units == 0) {
            std::fprintf(stderr,
                         "ndpext_solver_replay: no units recorded\n");
            return 2;
        }
        const MeshTopology topo{1, 1, units, 1};
        const NocModel noc{topo, NocParams{}};
        ConfigParams params;
        params.numUnits = units;
        params.rowsPerUnit = opt.rowsPerUnit;
        params.rowBytes = opt.rowBytes;
        ConfigParams capped = params;
        capped.budgetIterations = opt.budgetIters;
        ConfigAlgorithm full_algo(params, noc);
        ConfigAlgorithm capped_algo(capped, noc);
        for (const Decision& d : decisions) {
            if (d.demands.empty()) {
                continue;
            }
            full_algo.run(d.demands);
            full_objective += full_algo.lastObjectiveBytes();
            full_iters += full_algo.lastIterations();
            capped_algo.run(d.demands);
            capped_objective += capped_algo.lastObjectiveBytes();
            capped_iters += capped_algo.lastIterations();
        }
        const double regret = full_objective == 0
            ? 0.0
            : 100.0
                * (1.0
                   - static_cast<double>(capped_objective)
                       / static_cast<double>(full_objective));
        std::printf("algorithm1 replay: fullIters=%llu cappedIters=%llu "
                    "fullObjective=%llu cappedObjective=%llu "
                    "regret=%.2f%%\n",
                    static_cast<unsigned long long>(full_iters),
                    static_cast<unsigned long long>(capped_iters),
                    static_cast<unsigned long long>(full_objective),
                    static_cast<unsigned long long>(capped_objective),
                    regret);
        if (regret > opt.maxRegretPct) {
            std::fprintf(stderr,
                         "REGRET FAIL: %.2f%% > %.2f%% allowed\n", regret,
                         opt.maxRegretPct);
            ok = false;
        }
    }

    std::printf("solver replay: %zu decision(s), %llu warm solve(s) "
                "(%llu with empty delta), seededPairs=%llu "
                "coldAugPaths=%llu warmAugPaths=%llu -- %s\n",
                decisions.size(),
                static_cast<unsigned long long>(warm_solves),
                static_cast<unsigned long long>(empty_deltas),
                static_cast<unsigned long long>(seeded),
                static_cast<unsigned long long>(cold_aug),
                static_cast<unsigned long long>(warm_aug),
                ok ? "parity OK" : "PARITY VIOLATED");
    return ok ? 0 : 1;
}
