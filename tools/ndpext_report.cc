/**
 * ndpext_report — summarize, diff, and validate telemetry output.
 *
 * Consumes the three files a `ndpext_sim --telemetry=PREFIX` run emits
 * (PREFIX.metrics.jsonl, PREFIX.trace.json, PREFIX.decisions.jsonl):
 *
 *   ndpext_report summary PREFIX
 *       Per-epoch overview (accesses, hit rate, link bandwidth), final
 *       per-stream hit rates, p50/p99 of each sampled latency stage, and
 *       every runtime decision's stream->unit share assignment.
 *
 *   ndpext_report topdown PREFIX
 *       Fig. 2(a)-style top-down CPI stack from the final metric sample:
 *       machine-wide, per stack, and per stream, plus per-stream energy
 *       attribution. Verifies that the stall buckets sum exactly to the
 *       recorded memory stall cycles (exit 1 on violation).
 *
 *   ndpext_report diff [--strict] [--tolerance=REL] PREFIX_A PREFIX_B
 *       Compare two runs: per-stream hit-rate deltas, stage-latency
 *       percentile deltas, and the decisions whose allocations differ
 *       (Algorithm 1 replay diffing without rerunning the simulator).
 *       With --strict, exit 1 when aligned decisions diverge or any
 *       headline metric's relative delta exceeds REL (default 0).
 *
 *   ndpext_report check PREFIX
 *       Validate the schema of all three files; exit 1 with a message on
 *       the first violation (the ctest schema gate). Warns (exit 0) when
 *       stage percentiles rest on too few sampled packet slices.
 *
 *   ndpext_report check --stats-json=FILE
 *       Validate a `ndpext_sim --stats-json` output instead: required
 *       headline scalars, the degraded block, and an all-numeric "stats"
 *       counter object (the CI backend-matrix gate).
 *
 *   ndpext_report slo PREFIX
 *   ndpext_report slo --stats-json=FILE
 *       Multi-tenant serving view (runs produced with --tenant): each
 *       tenant's request-latency p50/p99 against its SLO target,
 *       attainment (1 - violations/retired), and -- from telemetry --
 *       the per-epoch attainment trend (`n/a` for epochs where a tenant
 *       retired nothing, e.g. before arrival or after departure). Exit 1
 *       when the run carried no serving tenants.
 *
 *   ndpext_report trace PREFIX
 *       Tail-latency forensics for runs produced with --trace-requests:
 *       per-request causal span breakdown (queue wait -> compute -> L1
 *       -> NoC -> CXL -> ext-memory ...) of every retained exemplar,
 *       verified cycle-exact against the recorded request latency, plus
 *       a per-tenant blame summary naming the stage that dominates the
 *       slowest (p99) exemplars. Exit 1 when a stage sum disagrees with
 *       its request latency or the run retained no exemplars.
 *
 *   ndpext_report watch PREFIX
 *       Follow a live (or finished) run without perturbing it: reads
 *       only the advisory PREFIX.heartbeat.json the simulator atomically
 *       rewrites at epoch barriers, plus any flushed PREFIX.metrics.part
 *       side file. Prints epoch/cycle progress, wall-clock rate and ETA,
 *       and each tenant's cumulative SLO attainment / violation burn
 *       rate. Unlike every other command, watch accepts an .inprogress
 *       marker -- an in-progress run is exactly what it is for.
 *
 * Exit status: 0 = ok, 1 = bad telemetry content, 2 = usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
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
    "usage: ndpext_report <command> [options] <prefix> [<prefix2>]\n"
    "  summary PREFIX       per-epoch metrics, per-stream hit rates,\n"
    "                       stage latency percentiles, decisions\n"
    "  topdown PREFIX       top-down CPI stack (machine / per stack /\n"
    "                       per stream) + per-stream energy attribution\n"
    "  diff [--strict] [--tolerance=REL] PREFIX PREFIX2\n"
    "                       compare two telemetry runs; --strict exits 1\n"
    "                       on decision divergence or metric deltas\n"
    "                       beyond REL (default 0)\n"
    "  check PREFIX         validate the telemetry schema (exit 1 on\n"
    "                       violation)\n"
    "  check --stats-json=FILE\n"
    "                       validate a --stats-json output instead\n"
    "  slo PREFIX           per-tenant serving view: request-latency\n"
    "                       p50/p99 against each SLO target, attainment,\n"
    "                       and the per-epoch attainment trend\n"
    "  slo --stats-json=FILE\n"
    "                       the same table from a --stats-json output\n"
    "  trace PREFIX         per-request span breakdown of every retained\n"
    "                       tail exemplar (--trace-requests runs) and a\n"
    "                       per-tenant p99 blame summary\n"
    "  watch PREFIX         live view of a running simulation from its\n"
    "                       heartbeat file: progress, ETA, SLO burn rate\n";

/**
 * Percentiles from fewer samples than this are statistically garbage
 * (a p99 needs ~100 points to even be defined by rank). summary/topdown
 * warn; check flags the same condition without failing, so low
 * --telemetry-sample smoke runs stay usable as schema gates.
 */
constexpr std::size_t kMinStageSamples = 100;

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "ndpext_report: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

/** Content failure: print and exit 1 (distinct from usage errors). */
[[noreturn]] void
fail(const std::string& message)
{
    std::fprintf(stderr, "ndpext_report: %s\n", message.c_str());
    std::exit(1);
}

bool
readFile(const std::string& path, std::string& out, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot read '" + path + "'";
        }
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** One parsed telemetry run. */
struct Run
{
    std::string prefix;
    std::vector<json::ValuePtr> epochs;    ///< metrics.jsonl lines
    std::vector<json::ValuePtr> decisions; ///< decisions.jsonl lines
    json::ValuePtr trace;                  ///< trace.json document
    /** exemplars.jsonl lines; empty unless run with --trace-requests. */
    std::vector<json::ValuePtr> exemplars;
};

Run
loadRun(const std::string& prefix)
{
    // The simulator drops `<prefix>.inprogress` before a run and only
    // removes it after every artifact is written, so its presence means
    // the producing run crashed, was killed, or is still running -- the
    // telemetry here is stale or incomplete.
    if (std::ifstream(prefix + ".inprogress").good()) {
        fail(prefix
             + ".inprogress exists: the producing run did not finish "
               "(crashed, killed, or still running). Re-run it, resume "
               "it with --resume from its newest checkpoint, or drive "
               "the retry with ndpext_supervise; delete the marker if "
               "it is stale.");
    }
    Run run;
    run.prefix = prefix;
    std::string text;
    std::string error;
    if (!readFile(prefix + ".metrics.jsonl", text, &error)) {
        fail(error);
    }
    if (!json::parseLines(text, run.epochs, &error)) {
        fail(prefix + ".metrics.jsonl: " + error);
    }
    if (!readFile(prefix + ".decisions.jsonl", text, &error)) {
        fail(error);
    }
    if (!json::parseLines(text, run.decisions, &error)) {
        fail(prefix + ".decisions.jsonl: " + error);
    }
    if (!readFile(prefix + ".trace.json", text, &error)) {
        fail(error);
    }
    run.trace = json::parse(text, &error);
    if (run.trace == nullptr) {
        fail(prefix + ".trace.json: " + error);
    }
    // Optional fourth artifact: only --trace-requests runs emit it.
    if (readFile(prefix + ".exemplars.jsonl", text, nullptr)
        && !json::parseLines(text, run.exemplars, &error)) {
        fail(prefix + ".exemplars.jsonl: " + error);
    }
    return run;
}

/** metrics["name"] of one epoch line (0.0 when absent). */
double
metric(const json::Value& epoch_line, const std::string& name)
{
    const json::Value* metrics = epoch_line.get("metrics");
    return metrics == nullptr ? 0.0 : metrics->num(name);
}

/** Final (cumulative) value of a metric: the last epoch line's entry. */
double
finalMetric(const Run& run, const std::string& name)
{
    return run.epochs.empty() ? 0.0 : metric(*run.epochs.back(), name);
}

/** Nearest-rank percentile of an unsorted sample set (0 when empty). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t idx =
        static_cast<std::size_t>(std::llround(std::floor(pos + 0.5)));
    return v[std::min(idx, v.size() - 1)];
}

/** Per-stage duration samples from the trace's packet slices. */
std::map<std::string, std::vector<double>>
stageSamples(const Run& run)
{
    std::map<std::string, std::vector<double>> stages;
    const json::Value* events = run.trace->get("traceEvents");
    if (events == nullptr) {
        return stages;
    }
    for (const auto& ev : events->array) {
        if (ev->str("ph") != "X" || ev->str("cat") != "packet") {
            continue;
        }
        const std::string name = ev->str("name");
        // Parent spans are "pkt"/"pkt s<sid>" (total); children are the
        // stage names.
        const std::string key =
            name.rfind("pkt", 0) == 0 ? std::string("total") : name;
        stages[key].push_back(ev->num("dur"));
    }
    return stages;
}

/** Final per-stream hits/misses keyed by sid. */
std::map<std::uint64_t, std::pair<double, double>>
streamHitMiss(const Run& run)
{
    std::map<std::uint64_t, std::pair<double, double>> per_stream;
    if (run.epochs.empty()) {
        return per_stream;
    }
    const json::Value* metrics = run.epochs.back()->get("metrics");
    if (metrics == nullptr) {
        return per_stream;
    }
    const std::string prefix = "cache.stream.";
    for (const auto& [name, value] : metrics->object) {
        if (name.rfind(prefix, 0) != 0 || !value->isNumber()) {
            continue;
        }
        const std::string rest = name.substr(prefix.size());
        const auto dot = rest.find('.');
        if (dot == std::string::npos) {
            continue;
        }
        std::uint64_t sid = 0;
        if (!parseCount(std::string_view(rest).substr(0, dot), &sid)) {
            continue;
        }
        const std::string field = rest.substr(dot + 1);
        if (field == "hits") {
            per_stream[sid].first = value->number;
        } else if (field == "misses") {
            per_stream[sid].second = value->number;
        }
    }
    return per_stream;
}

/** "sid -> unit:rows unit:rows ..." lines for one decision's allocs. */
void
printAssignments(const json::Value& decision)
{
    const json::Value* allocs = decision.get("allocs");
    if (allocs == nullptr) {
        return;
    }
    for (const auto& alloc : allocs->array) {
        std::printf("    stream %-4llu groups=%-3llu units:",
                    static_cast<unsigned long long>(alloc->num("sid")),
                    static_cast<unsigned long long>(alloc->num("numGroups")));
        const json::Value* shares = alloc->get("shareRows");
        if (shares != nullptr) {
            for (std::size_t u = 0; u < shares->array.size(); ++u) {
                const double rows = shares->array[u]->number;
                if (rows > 0) {
                    std::printf(" %zu:%llu", u,
                                static_cast<unsigned long long>(rows));
                }
            }
        }
        std::printf("\n");
    }
}

/** Canonical "sid:rows,rows,..." signature of a decision's allocation. */
std::string
allocSignature(const json::Value& decision)
{
    std::string sig;
    const json::Value* allocs = decision.get("allocs");
    if (allocs == nullptr) {
        return sig;
    }
    for (const auto& alloc : allocs->array) {
        sig += std::to_string(
            static_cast<std::uint64_t>(alloc->num("sid")));
        sig += ':';
        const json::Value* shares = alloc->get("shareRows");
        if (shares != nullptr) {
            for (const auto& v : shares->array) {
                sig += std::to_string(
                    static_cast<std::uint64_t>(v->number));
                sig += ',';
            }
        }
        sig += ';';
    }
    return sig;
}

/** Warn about stages whose percentiles rest on < kMinStageSamples
 *  sampled slices. Returns the number of warnings printed. */
std::size_t
warnLowSamples(const std::map<std::string, std::vector<double>>& stages)
{
    std::size_t warned = 0;
    for (const auto& [stage, samples] : stages) {
        if (samples.size() < kMinStageSamples) {
            std::fprintf(stderr,
                         "ndpext_report: warning: stage '%s' percentiles "
                         "computed from only %zu sampled slice(s) (< %zu); "
                         "lower --telemetry-sample or run longer for "
                         "trustworthy p99s\n",
                         stage.c_str(), samples.size(), kMinStageSamples);
            ++warned;
        }
    }
    return warned;
}

void
cmdSummary(const Run& run)
{
    std::printf("telemetry summary: %s\n", run.prefix.c_str());

    // --- per-epoch table ---
    std::printf("\nepochs (%zu):\n", run.epochs.size());
    std::printf("  %-6s %-12s %-10s %-8s %-12s %-12s %-12s\n", "epoch",
                "cycles", "accesses", "hitrate", "noc B/cyc",
                "ext B/cyc", "pkt p99");
    double prev_cycles = 0.0;
    double prev_noc = 0.0;
    double prev_ext = 0.0;
    double prev_hits = 0.0;
    double prev_misses = 0.0;
    for (const auto& line : run.epochs) {
        const double cycles = line->num("cycles");
        const double hits = metric(*line, "cache.hits");
        const double misses = metric(*line, "cache.misses");
        const double noc_bytes = metric(*line, "noc.intraHopBytes")
            + metric(*line, "noc.interHopBytes");
        const double ext_bytes = metric(*line, "ext.linkBytes");
        const double dc = std::max(1.0, cycles - prev_cycles);
        const double dh = hits - prev_hits;
        const double dm = misses - prev_misses;
        double p99 = 0.0;
        const json::Value* hists = line->get("histograms");
        if (hists != nullptr) {
            const json::Value* lat = hists->get("telemetry.packetLatency");
            if (lat != nullptr) {
                p99 = lat->num("p99");
            }
        }
        std::printf("  %-6llu %-12.0f %-10.0f %-8.3f %-12.2f %-12.2f "
                    "%-12.0f\n",
                    static_cast<unsigned long long>(line->num("epoch")),
                    cycles, dh + dm,
                    dh + dm == 0.0 ? 0.0 : dh / (dh + dm),
                    (noc_bytes - prev_noc) / dc,
                    (ext_bytes - prev_ext) / dc, p99);
        prev_cycles = cycles;
        prev_noc = noc_bytes;
        prev_ext = ext_bytes;
        prev_hits = hits;
        prev_misses = misses;
    }

    // --- placement solver (runtime.solver.* counters) ---
    const double solver_decisions =
        finalMetric(run, "runtime.solver.decisions");
    if (solver_decisions > 0.0) {
        const double iters = finalMetric(run, "runtime.solver.iterations");
        const double budget_hits =
            finalMetric(run, "runtime.solver.budgetHits");
        const double reused =
            finalMetric(run, "runtime.solver.warmStartReused");
        const double delta = finalMetric(run, "runtime.solver.deltaStreams");
        const double covered =
            finalMetric(run, "runtime.streamsCovered");
        std::printf("\nplacement solver:\n");
        std::printf("  decisions          %.0f\n", solver_decisions);
        std::printf("  iterations         %.0f (%.1f per decision)\n",
                    iters, iters / solver_decisions);
        std::printf("  budget hits        %.0f (%.1f%% of decisions)\n",
                    budget_hits,
                    100.0 * budget_hits / solver_decisions);
        if (covered > 0.0) {
            std::printf(
                "  warm-start reused  %.0f pair(s) (%.1f%% hit rate)\n",
                reused, 100.0 * reused / covered);
        } else {
            std::printf("  warm-start reused  %.0f pair(s)\n", reused);
        }
        std::printf("  delta streams      %.0f\n", delta);
    }

    // --- per-stream hit rate ---
    const auto per_stream = streamHitMiss(run);
    if (!per_stream.empty()) {
        std::printf("\nper-stream hit rate (final):\n");
        for (const auto& [sid, hm] : per_stream) {
            const double total = hm.first + hm.second;
            std::printf("  stream %-4llu accesses %-10.0f hitrate %.3f\n",
                        static_cast<unsigned long long>(sid), total,
                        total == 0.0 ? 0.0 : hm.first / total);
        }
    }

    // --- stage latency percentiles from sampled packets ---
    const auto stages = stageSamples(run);
    if (!stages.empty()) {
        std::printf("\nsampled packet latency by stage (cycles):\n");
        std::printf("  %-10s %-8s %-10s %-10s %-10s\n", "stage", "count",
                    "p50", "p99", "max");
        for (const auto& [stage, samples] : stages) {
            std::printf("  %-10s %-8zu %-10.0f %-10.0f %-10.0f\n",
                        stage.c_str(), samples.size(),
                        percentile(samples, 0.5), percentile(samples, 0.99),
                        samples.empty()
                            ? 0.0
                            : *std::max_element(samples.begin(),
                                                samples.end()));
        }
        warnLowSamples(stages);
    }

    // --- decisions ---
    std::printf("\nruntime decisions (%zu):\n", run.decisions.size());
    for (const auto& d : run.decisions) {
        std::printf(
            "  [%s] epoch %llu @ %llu cycles: %zu stream(s), "
            "iterations=%llu extends=%llu merges=%llu%s\n",
            d->str("kind").c_str(),
            static_cast<unsigned long long>(d->num("epoch")),
            static_cast<unsigned long long>(d->num("cycles")),
            d->get("allocs") == nullptr ? 0 : d->get("allocs")->array.size(),
            static_cast<unsigned long long>(d->num("iterations")),
            static_cast<unsigned long long>(d->num("extends")),
            static_cast<unsigned long long>(d->num("merges")),
            d->get("applied") != nullptr && !d->get("applied")->boolean
                ? " (skipped by stability guard)"
                : "");
        printAssignments(*d);
    }
}

/** The memory-stall buckets of the top-down stack, in print order. */
constexpr const char* kStallBuckets[] = {"metadata",  "icnIntra",
                                         "icnInter",  "dramCache",
                                         "extMem",    "mshrQueue"};
constexpr std::size_t kNumStallBuckets = 6;

/** One CPI stack read from a metric namespace (cores / stack.<s>). */
struct CpiStack
{
    bool present = false;
    double compute = 0.0;
    double l1 = 0.0;
    double memStall = 0.0;
    double buckets[kNumStallBuckets] = {};

    double total() const { return compute + l1 + memStall; }
    double
    bucketSum() const
    {
        double sum = 0.0;
        for (const double b : buckets) {
            sum += b;
        }
        return sum;
    }
};

CpiStack
readCpiStack(const json::Value& metrics, const std::string& prefix)
{
    CpiStack s;
    const json::Value* mem = metrics.get(prefix + ".memStallCycles");
    if (mem == nullptr || !mem->isNumber()) {
        return s;
    }
    s.present = true;
    s.compute = metrics.num(prefix + ".computeCycles");
    s.l1 = metrics.num(prefix + ".l1Cycles");
    s.memStall = mem->number;
    for (std::size_t i = 0; i < kNumStallBuckets; ++i) {
        s.buckets[i] =
            metrics.num(prefix + ".stall." + kStallBuckets[i]);
    }
    return s;
}

void
printCpiRow(const char* label, const CpiStack& s)
{
    const double total = std::max(1.0, s.total());
    std::printf("  %-10s %-14.0f %5.1f%% %5.1f%%", label, s.total(),
                100.0 * s.compute / total, 100.0 * s.l1 / total);
    for (std::size_t i = 0; i < kNumStallBuckets; ++i) {
        std::printf(" %8.1f%%", 100.0 * s.buckets[i] / total);
    }
    std::printf("\n");
}

void
cmdTopdown(const Run& run)
{
    if (run.epochs.empty()) {
        fail(run.prefix + ".metrics.jsonl: no epoch samples");
    }
    const json::Value* metrics = run.epochs.back()->get("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
        fail(run.prefix + ".metrics.jsonl: missing 'metrics' object");
    }

    const CpiStack machine = readCpiStack(*metrics, "cores");
    if (!machine.present || metrics->get("cores.stall.metadata") == nullptr) {
        fail(run.prefix + ": no CPI-stack series (cores.stall.*); "
             "re-run the simulator with --telemetry");
    }

    std::printf("top-down CPI stack: %s (final sample, cumulative "
                "cycles)\n\n",
                run.prefix.c_str());
    std::printf("  %-10s %-14s %6s %6s", "scope", "cycles", "cmp", "l1");
    for (const char* b : kStallBuckets) {
        std::printf(" %9s", b);
    }
    std::printf("\n");
    printCpiRow("machine", machine);

    // --- per-stack stacks (registered as stack.<s>.*) ---
    for (std::size_t s = 0;; ++s) {
        const std::string prefix = "stack." + std::to_string(s);
        const CpiStack stack = readCpiStack(*metrics, prefix);
        if (!stack.present) {
            break;
        }
        printCpiRow(prefix.c_str(), stack);
        if (stack.bucketSum() != stack.memStall) {
            fail(prefix + ": stall buckets sum to "
                 + std::to_string(stack.bucketSum()) + " but "
                 + prefix + ".memStallCycles = "
                 + std::to_string(stack.memStall));
        }
    }

    // --- the tentpole invariant: buckets partition the stall cycles ---
    if (machine.bucketSum() != machine.memStall) {
        fail("invariant violation: stall buckets sum to "
             + std::to_string(machine.bucketSum())
             + " but cores.memStallCycles = "
             + std::to_string(machine.memStall));
    }
    std::printf("\ninvariant ok: stall buckets sum exactly to "
                "memStallCycles (%.0f)\n",
                machine.memStall);

    // --- per-stream cycle + energy attribution (stream.<sid>.*) ---
    std::vector<std::string> sids;
    const std::string sprefix = "stream.";
    for (const auto& [name, value] : metrics->object) {
        (void)value;
        if (name.rfind(sprefix, 0) != 0) {
            continue;
        }
        const std::string rest = name.substr(sprefix.size());
        const auto dot = rest.find('.');
        if (dot == std::string::npos
            || rest.compare(dot, std::string::npos, ".stallCycles") != 0) {
            continue;
        }
        sids.push_back(rest.substr(0, dot));
    }
    std::sort(sids.begin(), sids.end(), [](const std::string& a,
                                           const std::string& b) {
        const bool na = a != "none";
        const bool nb = b != "none";
        if (na != nb) {
            return na; // "none" sorts last
        }
        if (a.size() != b.size()) {
            return a.size() < b.size();
        }
        return a < b;
    });

    if (!sids.empty()) {
        std::printf("\nper-stream attribution (cycles):\n");
        std::printf("  %-8s %-12s %-10s %-10s %-10s %-10s %-10s\n",
                    "stream", "stall", "metadata", "icnIntra", "icnInter",
                    "dramCache", "extMem");
        double stall_sum = 0.0;
        for (const std::string& sid : sids) {
            const std::string base = sprefix + sid;
            const double stall = metrics->num(base + ".stallCycles");
            stall_sum += stall;
            std::printf(
                "  %-8s %-12.0f %-10.0f %-10.0f %-10.0f %-10.0f %-10.0f\n",
                sid.c_str(), stall,
                metrics->num(base + ".serviceCycles.metadata"),
                metrics->num(base + ".serviceCycles.icnIntra"),
                metrics->num(base + ".serviceCycles.icnInter"),
                metrics->num(base + ".serviceCycles.dramCache"),
                metrics->num(base + ".serviceCycles.extMem"));
        }
        if (stall_sum != machine.memStall) {
            fail("invariant violation: per-stream stall cycles sum to "
                 + std::to_string(stall_sum)
                 + " but cores.memStallCycles = "
                 + std::to_string(machine.memStall));
        }

        std::printf("\nper-stream attribution (energy, nJ):\n");
        std::printf("  %-8s %-12s %-12s %-12s %-12s %-12s\n", "stream",
                    "icn", "cxlLink", "extDram", "dramCache", "sram");
        for (const std::string& sid : sids) {
            const std::string base = sprefix + sid + ".energyNj";
            std::printf(
                "  %-8s %-12.1f %-12.1f %-12.1f %-12.1f %-12.1f\n",
                sid.c_str(), metrics->num(base + ".icn"),
                metrics->num(base + ".cxlLink"),
                metrics->num(base + ".extDram"),
                metrics->num(base + ".dramCache"),
                metrics->num(base + ".sram"));
        }
        std::printf("\nper-stream stall cycles sum exactly to "
                    "memStallCycles (%.0f)\n",
                    stall_sum);
    }

    warnLowSamples(stageSamples(run));
}

/**
 * Compare two runs; returns the number of strict-mode violations
 * (diverged aligned decisions count as one violation, plus one per
 * headline metric whose relative delta exceeds `tolerance`). The caller
 * only acts on the return value when --strict was given.
 */
std::size_t
cmdDiff(const Run& a, const Run& b, double tolerance)
{
    std::size_t violations = 0;
    std::printf("telemetry diff: %s vs %s\n", a.prefix.c_str(),
                b.prefix.c_str());

    // --- headline metric deltas ---
    const char* headline[] = {"cache.hits", "cache.misses",
                              "noc.interHopBytes", "ext.linkBytes",
                              "runtime.reconfigurations"};
    std::printf("\nfinal metrics:\n");
    std::printf("  %-26s %-14s %-14s %-14s\n", "metric", "a", "b", "delta");
    for (const char* name : headline) {
        const double va = finalMetric(a, name);
        const double vb = finalMetric(b, name);
        const double rel =
            va == 0.0 ? (vb == 0.0 ? 0.0 : 1.0)
                      : std::abs(vb - va) / std::abs(va);
        const bool over = rel > tolerance;
        if (over) {
            ++violations;
        }
        std::printf("  %-26s %-14.0f %-14.0f %-+14.0f%s\n", name, va, vb,
                    vb - va, over ? "  <-- exceeds tolerance" : "");
    }

    // --- per-stream hit-rate deltas ---
    const auto sa = streamHitMiss(a);
    const auto sb = streamHitMiss(b);
    std::printf("\nper-stream hit rate:\n");
    std::printf("  %-8s %-10s %-10s %-10s\n", "stream", "a", "b", "delta");
    for (const auto& [sid, hm] : sa) {
        const auto it = sb.find(sid);
        const double ta = hm.first + hm.second;
        const double ra = ta == 0.0 ? 0.0 : hm.first / ta;
        double rb = 0.0;
        if (it != sb.end()) {
            const double tb = it->second.first + it->second.second;
            rb = tb == 0.0 ? 0.0 : it->second.first / tb;
        }
        std::printf("  %-8llu %-10.3f %-10.3f %-+10.3f\n",
                    static_cast<unsigned long long>(sid), ra, rb, rb - ra);
    }
    for (const auto& [sid, hm] : sb) {
        if (sa.find(sid) == sa.end()) {
            const double tb = hm.first + hm.second;
            std::printf("  %-8llu %-10s %-10.3f (only in b)\n",
                        static_cast<unsigned long long>(sid), "-",
                        tb == 0.0 ? 0.0 : hm.first / tb);
        }
    }

    // --- stage latency percentile deltas ---
    const auto stages_a = stageSamples(a);
    const auto stages_b = stageSamples(b);
    std::printf("\nsampled stage latency p50/p99 (cycles):\n");
    std::printf("  %-10s %-16s %-16s\n", "stage", "a (p50/p99)",
                "b (p50/p99)");
    std::vector<std::string> names;
    for (const auto& [k, v] : stages_a) {
        names.push_back(k);
    }
    for (const auto& [k, v] : stages_b) {
        if (stages_a.find(k) == stages_a.end()) {
            names.push_back(k);
        }
    }
    for (const auto& name : names) {
        const auto ia = stages_a.find(name);
        const auto ib = stages_b.find(name);
        char la[32] = "-";
        char lb[32] = "-";
        if (ia != stages_a.end()) {
            std::snprintf(la, sizeof(la), "%.0f/%.0f",
                          percentile(ia->second, 0.5),
                          percentile(ia->second, 0.99));
        }
        if (ib != stages_b.end()) {
            std::snprintf(lb, sizeof(lb), "%.0f/%.0f",
                          percentile(ib->second, 0.5),
                          percentile(ib->second, 0.99));
        }
        std::printf("  %-10s %-16s %-16s\n", name.c_str(), la, lb);
    }

    // --- decision divergence: first epoch whose allocation differs ---
    std::printf("\ndecisions: %zu in a, %zu in b\n", a.decisions.size(),
                b.decisions.size());
    const std::size_t common =
        std::min(a.decisions.size(), b.decisions.size());
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < common; ++i) {
        if (allocSignature(*a.decisions[i])
            != allocSignature(*b.decisions[i])) {
            if (diverged == 0) {
                std::printf("first divergence at decision %zu:\n", i);
                std::printf("  a [%s epoch %llu]:\n",
                            a.decisions[i]->str("kind").c_str(),
                            static_cast<unsigned long long>(
                                a.decisions[i]->num("epoch")));
                printAssignments(*a.decisions[i]);
                std::printf("  b [%s epoch %llu]:\n",
                            b.decisions[i]->str("kind").c_str(),
                            static_cast<unsigned long long>(
                                b.decisions[i]->num("epoch")));
                printAssignments(*b.decisions[i]);
            }
            ++diverged;
        }
    }
    std::printf("%zu of %zu aligned decisions differ\n", diverged, common);
    if (diverged > 0) {
        ++violations;
    }
    return violations;
}

/** Schema checks (the ctest gate). Every failure names file and line. */
void
checkMetricsSchema(const Run& run)
{
    const char* file = ".metrics.jsonl";
    if (run.epochs.empty()) {
        fail(run.prefix + file + ": no epoch samples");
    }
    double prev_epoch = -1.0;
    for (std::size_t i = 0; i < run.epochs.size(); ++i) {
        const json::Value& line = *run.epochs[i];
        const std::string at =
            run.prefix + file + " line " + std::to_string(i + 1);
        if (!line.isObject()) {
            fail(at + ": not an object");
        }
        for (const char* key : {"epoch", "cycles"}) {
            const json::Value* v = line.get(key);
            if (v == nullptr || !v->isNumber()) {
                fail(at + ": missing numeric '" + key + "'");
            }
        }
        if (line.num("epoch") <= prev_epoch) {
            fail(at + ": epoch numbers must increase");
        }
        prev_epoch = line.num("epoch");
        const json::Value* metrics = line.get("metrics");
        if (metrics == nullptr || !metrics->isObject()) {
            fail(at + ": missing 'metrics' object");
        }
        for (const auto& [name, value] : metrics->object) {
            if (!value->isNumber()) {
                fail(at + ": metric '" + name + "' is not a number");
            }
        }
        const json::Value* hists = line.get("histograms");
        if (hists != nullptr) {
            for (const auto& [name, h] : hists->object) {
                for (const char* key :
                     {"count", "mean", "p50", "p99", "max"}) {
                    const json::Value* v = h->get(key);
                    if (v == nullptr || !v->isNumber()) {
                        fail(at + ": histogram '" + name
                             + "' missing numeric '" + key + "'");
                    }
                }
            }
        }
    }
}

void
checkDecisionsSchema(const Run& run)
{
    const char* file = ".decisions.jsonl";
    for (std::size_t i = 0; i < run.decisions.size(); ++i) {
        const json::Value& d = *run.decisions[i];
        const std::string at =
            run.prefix + file + " line " + std::to_string(i + 1);
        const std::string kind = d.str("kind");
        if (kind != "initial" && kind != "epoch" && kind != "emergency") {
            fail(at + ": bad kind '" + kind + "'");
        }
        for (const char* key :
             {"epoch", "cycles", "iterations", "extends", "merges"}) {
            const json::Value* v = d.get(key);
            if (v == nullptr || !v->isNumber()) {
                fail(at + ": missing numeric '" + key + "'");
            }
        }
        const json::Value* applied = d.get("applied");
        if (applied == nullptr || !applied->isBool()) {
            fail(at + ": missing boolean 'applied'");
        }
        for (const char* key :
             {"demands", "samplerAssignment", "uncovered", "allocs"}) {
            const json::Value* v = d.get(key);
            if (v == nullptr || !v->isArray()) {
                fail(at + ": missing array '" + key + "'");
            }
        }
        for (const auto& demand : d.get("demands")->array) {
            const json::Value* curve = demand->get("curve");
            if (curve == nullptr || curve->get("capacities") == nullptr
                || curve->get("misses") == nullptr) {
                fail(at + ": demand without a miss curve");
            }
            if (curve->get("capacities")->array.size()
                != curve->get("misses")->array.size()) {
                fail(at + ": curve capacities/misses length mismatch");
            }
        }
        for (const auto& alloc : d.get("allocs")->array) {
            if (alloc->get("sid") == nullptr
                || alloc->get("shareRows") == nullptr
                || !alloc->get("shareRows")->isArray()) {
                fail(at + ": alloc without sid/shareRows");
            }
        }
    }
}

void
checkTraceSchema(const Run& run)
{
    const std::string at = run.prefix + ".trace.json";
    if (!run.trace->isObject()) {
        fail(at + ": not an object");
    }
    const json::Value* events = run.trace->get("traceEvents");
    if (events == nullptr || !events->isArray()) {
        fail(at + ": missing 'traceEvents' array");
    }
    if (events->array.empty()) {
        fail(at + ": empty trace");
    }
    // Flow events (ph s/t/f) must pair up: every flow id needs exactly
    // one start and one end -- an orphan means a request span tree was
    // emitted half-linked (e.g. a tenant departed mid-epoch and its
    // exemplar was dropped on the floor).
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> flows;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const json::Value& ev = *events->array[i];
        const std::string evat = at + " event " + std::to_string(i);
        const std::string ph = ev.str("ph");
        if (ph != "X" && ph != "i" && ph != "C" && ph != "M" && ph != "s"
            && ph != "t" && ph != "f") {
            fail(evat + ": bad ph '" + ph + "'");
        }
        for (const char* key : {"pid", "tid", "ts"}) {
            const json::Value* v = ev.get(key);
            if (v == nullptr || !v->isNumber()) {
                fail(evat + ": missing numeric '" + key + "'");
            }
        }
        if (ev.get("name") == nullptr) {
            fail(evat + ": missing 'name'");
        }
        if (ph == "X" && ev.get("dur") == nullptr) {
            fail(evat + ": complete span without 'dur'");
        }
        if (ph == "s" || ph == "t" || ph == "f") {
            const json::Value* id = ev.get("id");
            if (id == nullptr || !id->isNumber()) {
                fail(evat + ": flow event without numeric 'id'");
            }
            const std::uint64_t fid =
                static_cast<std::uint64_t>(id->number);
            if (ph == "s") {
                ++flows[fid].first;
            } else if (ph == "f") {
                ++flows[fid].second;
            } else if (flows.find(fid) == flows.end()) {
                fail(evat + ": flow step for id "
                     + std::to_string(fid) + " before its start");
            }
        }
    }
    for (const auto& [fid, counts] : flows) {
        if (counts.first != 1 || counts.second != 1) {
            fail(at + ": orphan flow id " + std::to_string(fid) + " ("
                 + std::to_string(counts.first) + " start(s), "
                 + std::to_string(counts.second) + " end(s))");
        }
    }
}

/** The nine exemplar stage names, in causal order. */
constexpr const char* kExemplarStages[] = {
    "queueWait", "compute",   "l1",     "metadata", "icnIntra",
    "icnInter",  "dramCache", "extMem", "mshrQueue"};

/**
 * Validate PREFIX.exemplars.jsonl: field presence/types, enum values,
 * and the load-bearing invariant that each exemplar's stage cycles sum
 * exactly to its end-to-end request latency (no unattributed cycles).
 */
void
checkExemplarSchema(const Run& run)
{
    const std::string at = run.prefix + ".exemplars.jsonl";
    for (std::size_t i = 0; i < run.exemplars.size(); ++i) {
        const json::Value& ex = *run.exemplars[i];
        const std::string exat = at + " line " + std::to_string(i + 1);
        if (!ex.isObject()) {
            fail(exat + ": not an object");
        }
        for (const char* key : {"tenant", "qos", "kind"}) {
            const json::Value* v = ex.get(key);
            if (v == nullptr || !v->isString() || v->string.empty()) {
                fail(exat + ": missing non-empty string '" + key + "'");
            }
        }
        const std::string qos = ex.str("qos");
        if (qos != "reserved" && qos != "best-effort") {
            fail(exat + ": bad qos '" + qos + "'");
        }
        const std::string kind = ex.str("kind");
        if (kind != "slow" && kind != "uniform") {
            fail(exat + ": bad kind '" + kind + "'");
        }
        for (const char* key : {"epoch", "core", "flow", "arrival",
                                "start", "done", "latency", "sloCycles",
                                "violation"}) {
            const json::Value* v = ex.get(key);
            if (v == nullptr || !v->isNumber()) {
                fail(exat + ": missing numeric '" + key + "'");
            }
        }
        const json::Value* stages = ex.get("stages");
        if (stages == nullptr || !stages->isObject()) {
            fail(exat + ": missing 'stages' object");
        }
        double sum = 0.0;
        for (const char* stage : kExemplarStages) {
            const json::Value* v = stages->get(stage);
            if (v == nullptr || !v->isNumber()) {
                fail(exat + ": missing numeric stage '"
                     + std::string(stage) + "'");
            }
            sum += v->number;
        }
        if (ex.num("done") - ex.num("arrival") != ex.num("latency")) {
            fail(exat + ": done - arrival != latency");
        }
        if (sum != ex.num("latency")) {
            fail(exat + ": stage sum " + std::to_string(sum)
                 + " != request latency "
                 + std::to_string(ex.num("latency"))
                 + " (unattributed cycles)");
        }
    }
}

/**
 * Schema-check one `ndpext_sim --stats-json` output file. Every backend
 * and policy emits the same headline scalars; the "stats" object is
 * free-form (backends add their own counters) but must be all-numeric.
 */
void
cmdCheckStatsJson(const std::string& path)
{
    // Same crash-marker contract as telemetry prefixes: the simulator
    // leaves `FILE.inprogress` behind when it dies mid-run.
    if (std::ifstream(path + ".inprogress").good()) {
        fail(path + ".inprogress exists: the producing run did not "
                    "finish; its stats describe an unfinished run");
    }
    std::string text;
    std::string error;
    if (!readFile(path, text, &error)) {
        fail(error);
    }
    const json::ValuePtr doc = json::parse(text, &error);
    if (doc == nullptr) {
        fail(path + ": " + error);
    }
    if (!doc->isObject()) {
        fail(path + ": not a JSON object");
    }
    for (const char* key : {"workload", "policy"}) {
        const json::Value* v = doc->get(key);
        if (v == nullptr || !v->isString() || v->string.empty()) {
            fail(path + ": missing non-empty string '" + key + "'");
        }
    }
    for (const char* key :
         {"cycles", "accesses", "l1Hits", "missRate",
          "avgMemLatencyCycles", "energyNj", "reconfigurations",
          "engineWallMicros", "engineAccessesPerSec", "writeExceptions"}) {
        const json::Value* v = doc->get(key);
        if (v == nullptr || !v->isNumber()) {
            fail(path + ": missing numeric '" + key + "'");
        }
    }
    if (doc->num("cycles") <= 0.0) {
        fail(path + ": cycles must be positive (did the run execute?)");
    }
    const json::Value* degraded = doc->get("degraded");
    if (degraded == nullptr || !degraded->isObject()) {
        fail(path + ": missing 'degraded' object");
    }
    for (const auto& [name, value] : degraded->object) {
        if (!value->isNumber()) {
            fail(path + ": degraded field '" + name
                 + "' is not a number");
        }
    }
    const json::Value* stats = doc->get("stats");
    if (stats == nullptr || !stats->isObject()) {
        fail(path + ": missing 'stats' object");
    }
    if (stats->object.empty()) {
        fail(path + ": empty 'stats' object");
    }
    for (const auto& [name, value] : stats->object) {
        if (!value->isNumber()) {
            fail(path + ": stats counter '" + name
                 + "' is not a number");
        }
    }
    std::printf("ok: %s: workload=%s policy=%s, %zu stats counter(s)\n",
                path.c_str(), doc->str("workload").c_str(),
                doc->str("policy").c_str(), stats->object.size());
}

/** One tenant's serving numbers, from telemetry or a stats JSON. */
struct TenantSlo
{
    std::string name;
    double arrivals = 0.0;
    double started = 0.0;
    double retired = 0.0;
    double violations = 0.0;
    double sloCycles = 0.0;
    bool reserved = false;
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;

    double
    attainment() const
    {
        return retired == 0.0 ? 1.0 : 1.0 - violations / retired;
    }
};

void
printSloTable(const std::vector<TenantSlo>& tenants)
{
    std::printf("  %-12s %-11s %-9s %-9s %-9s %-9s %-9s %-9s %-9s %s\n",
                "tenant", "qos", "arrivals", "retired", "viols", "p50",
                "p99", "max", "slo", "attain");
    for (const TenantSlo& t : tenants) {
        std::printf("  %-12s %-11s %-9.0f %-9.0f %-9.0f %-9.0f %-9.0f "
                    "%-9.0f %-9.0f %6.2f%%%s\n",
                    t.name.c_str(), t.reserved ? "reserved" : "best-effort",
                    t.arrivals, t.retired, t.violations, t.p50, t.p99,
                    t.max, t.sloCycles, 100.0 * t.attainment(),
                    t.p99 > t.sloCycles && t.sloCycles > 0.0
                        ? "  <-- p99 over SLO"
                        : "");
    }
}

/** Tenant names present in a key set, via "tenant.<name>.arrivals". */
std::vector<std::string>
tenantNames(const json::Value& object)
{
    std::vector<std::string> names;
    const std::string prefix = "tenant.";
    const std::string suffix = ".arrivals";
    for (const auto& [key, value] : object.object) {
        (void)value;
        if (key.rfind(prefix, 0) != 0 || key.size() <= prefix.size()
            || key.compare(key.size() - suffix.size(), suffix.size(),
                           suffix)
                != 0) {
            continue;
        }
        names.push_back(key.substr(
            prefix.size(), key.size() - prefix.size() - suffix.size()));
    }
    std::sort(names.begin(), names.end());
    return names;
}

void
cmdSlo(const Run& run)
{
    if (run.epochs.empty()) {
        fail(run.prefix + ".metrics.jsonl: no epoch samples");
    }
    const json::Value& last = *run.epochs.back();
    const json::Value* metrics = last.get("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
        fail(run.prefix + ".metrics.jsonl: missing 'metrics' object");
    }
    const std::vector<std::string> names = tenantNames(*metrics);
    if (names.empty()) {
        fail(run.prefix + ": no serving tenants in this run (tenant.* "
                          "metrics absent); produce one with ndpext_sim "
                          "--tenant=... --telemetry=PREFIX");
    }

    std::vector<TenantSlo> tenants;
    const json::Value* hists = last.get("histograms");
    for (const std::string& name : names) {
        TenantSlo t;
        t.name = name;
        const std::string base = "tenant." + name;
        t.arrivals = metrics->num(base + ".arrivals");
        t.started = metrics->num(base + ".started");
        t.retired = metrics->num(base + ".retired");
        t.violations = metrics->num(base + ".sloViolations");
        t.sloCycles = metrics->num(base + ".sloCycles");
        t.reserved = metrics->num(base + ".reserved") != 0.0;
        if (hists != nullptr) {
            const json::Value* lat = hists->get(base + ".latency");
            if (lat != nullptr) {
                t.p50 = lat->num("p50");
                t.p99 = lat->num("p99");
                t.max = lat->num("max");
            }
        }
        tenants.push_back(std::move(t));
    }

    std::printf("serving SLO view: %s (final sample, %zu tenant(s))\n\n",
                run.prefix.c_str(), tenants.size());
    printSloTable(tenants);

    // Per-epoch attainment trend: the metrics are cumulative, so each
    // interval's attainment comes from adjacent-sample deltas.
    std::printf("\nper-epoch SLO attainment (interval, %%):\n");
    std::printf("  %-6s", "epoch");
    for (const std::string& name : names) {
        std::printf(" %12s", name.c_str());
    }
    std::printf("\n");
    std::vector<double> prev_retired(names.size(), 0.0);
    std::vector<double> prev_viols(names.size(), 0.0);
    for (const auto& line : run.epochs) {
        const json::Value* m = line->get("metrics");
        if (m == nullptr) {
            continue;
        }
        std::printf("  %-6llu",
                    static_cast<unsigned long long>(line->num("epoch")));
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::string base = "tenant." + names[i];
            const double retired = m->num(base + ".retired");
            const double viols = m->num(base + ".sloViolations");
            const double dr = retired - prev_retired[i];
            const double dv = viols - prev_viols[i];
            if (dr <= 0.0) {
                // Nothing retired this interval (tenant not yet arrived,
                // already departed, or simply idle): attainment is
                // undefined, never NaN/inf.
                std::printf(" %12s", "n/a");
            } else {
                std::printf(" %11.2f%%", 100.0 * (1.0 - dv / dr));
            }
            prev_retired[i] = retired;
            prev_viols[i] = viols;
        }
        std::printf("\n");
    }
}

/** The slo table from a `ndpext_sim --stats-json` output. */
void
cmdSloStatsJson(const std::string& path)
{
    if (std::ifstream(path + ".inprogress").good()) {
        fail(path + ".inprogress exists: the producing run did not "
                    "finish; its stats describe an unfinished run");
    }
    std::string text;
    std::string error;
    if (!readFile(path, text, &error)) {
        fail(error);
    }
    const json::ValuePtr doc = json::parse(text, &error);
    if (doc == nullptr) {
        fail(path + ": " + error);
    }
    const json::Value* stats =
        doc->isObject() ? doc->get("stats") : nullptr;
    if (stats == nullptr || !stats->isObject()) {
        fail(path + ": missing 'stats' object");
    }
    if (stats->num("serving.tenants") <= 0.0) {
        fail(path + ": no serving tenants in this run (serving.tenants "
                    "is absent); produce one with ndpext_sim "
                    "--tenant=... --stats-json=FILE");
    }
    std::vector<TenantSlo> tenants;
    for (const std::string& name : tenantNames(*stats)) {
        TenantSlo t;
        t.name = name;
        const std::string base = "tenant." + name;
        t.arrivals = stats->num(base + ".arrivals");
        t.started = stats->num(base + ".started");
        t.retired = stats->num(base + ".retired");
        t.violations = stats->num(base + ".sloViolations");
        t.sloCycles = stats->num(base + ".sloCycles");
        t.reserved = stats->num(base + ".reserved") != 0.0;
        t.p50 = stats->num(base + ".latencyP50");
        t.p99 = stats->num(base + ".latencyP99");
        t.max = stats->num(base + ".latencyMax");
        tenants.push_back(std::move(t));
    }
    std::printf("serving SLO view: %s (%zu tenant(s))\n\n", path.c_str(),
                tenants.size());
    printSloTable(tenants);
}

/**
 * Tail-latency forensics: the full causal span path of every retained
 * exemplar, verified cycle-exact, plus per-tenant p99 blame.
 */
void
cmdTrace(const Run& run)
{
    if (run.exemplars.empty()) {
        fail(run.prefix + ": no request exemplars "
             + "(produce them with ndpext_sim --tenant=... "
               "--telemetry=PREFIX --trace-requests)");
    }
    checkExemplarSchema(run);

    std::map<std::string, std::vector<const json::Value*>> by_tenant;
    for (const auto& ex : run.exemplars) {
        by_tenant[ex->str("tenant")].push_back(ex.get());
    }
    std::printf("request-trace view: %s (%zu exemplar(s), %zu "
                "tenant(s))\n",
                run.prefix.c_str(), run.exemplars.size(),
                by_tenant.size());

    std::vector<std::pair<std::string, std::string>> blame;
    for (const auto& [tenant, exemplars] : by_tenant) {
        std::size_t slow_n = 0;
        for (const json::Value* ex : exemplars) {
            slow_n += ex->str("kind") == "slow" ? 1 : 0;
        }
        std::printf("\ntenant %s (%s, slo=%.0f): %zu slow + %zu uniform "
                    "exemplar(s)\n",
                    tenant.c_str(), exemplars.front()->str("qos").c_str(),
                    exemplars.front()->num("sloCycles"), slow_n,
                    exemplars.size() - slow_n);
        std::printf("  %-5s %-5s %-4s %-10s %-9s", "epoch", "flow",
                    "core", "arrival", "latency");
        for (const char* stage : kExemplarStages) {
            std::printf(" %9s", stage);
        }
        std::printf(" %s\n", "slo");
        double stage_sum[std::size(kExemplarStages)] = {};
        for (const json::Value* ex : exemplars) {
            if (ex->str("kind") != "slow") {
                continue; // uniform exemplars feed tooling, not the table
            }
            std::printf("  %-5.0f %-5.0f %-4.0f %-10.0f %-9.0f",
                        ex->num("epoch"), ex->num("flow"), ex->num("core"),
                        ex->num("arrival"), ex->num("latency"));
            const json::Value* stages = ex->get("stages");
            for (std::size_t s = 0; s < std::size(kExemplarStages); ++s) {
                const double v = stages->num(kExemplarStages[s]);
                stage_sum[s] += v;
                std::printf(" %9.0f", v);
            }
            std::printf(" %s\n",
                        ex->num("violation") != 0.0 ? "VIOL" : "ok");
        }
        // Blame: which stage dominates the slowest requests this run
        // retained -- the first place to look for this tenant's tail.
        double total = 0.0;
        std::size_t dom = 0;
        for (std::size_t s = 0; s < std::size(kExemplarStages); ++s) {
            total += stage_sum[s];
            if (stage_sum[s] > stage_sum[dom]) {
                dom = s;
            }
        }
        std::size_t second = dom == 0 ? 1 : 0;
        for (std::size_t s = 0; s < std::size(kExemplarStages); ++s) {
            if (s != dom && stage_sum[s] > stage_sum[second]) {
                second = s;
            }
        }
        if (total > 0.0) {
            std::printf("  blame: %s (%.1f%% of slow-exemplar cycles), "
                        "then %s (%.1f%%)\n",
                        kExemplarStages[dom],
                        100.0 * stage_sum[dom] / total,
                        kExemplarStages[second],
                        100.0 * stage_sum[second] / total);
            blame.emplace_back(tenant, kExemplarStages[dom]);
        }
    }
    std::printf("\np99-dominant stage per tenant:");
    for (const auto& [tenant, stage] : blame) {
        std::printf(" %s:%s", tenant.c_str(), stage.c_str());
    }
    std::printf("\n");
}

/** Parse as many whole JSONL lines as possible (a live file may end in
 *  a partially-appended line; everything before it is still valid). */
std::vector<json::ValuePtr>
parseLinesLenient(const std::string& text)
{
    std::vector<json::ValuePtr> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            break; // trailing partial line: ignore
        }
        std::string err;
        json::ValuePtr v = json::parse(text.substr(pos, nl - pos), &err);
        if (v == nullptr) {
            break;
        }
        lines.push_back(std::move(v));
        pos = nl + 1;
    }
    return lines;
}

/**
 * Live view of a (possibly still running) simulation. Strictly
 * read-only over advisory artifacts -- the heartbeat file the run
 * atomically rewrites at epoch barriers and any flushed .metrics.part
 * side file -- so watching cannot perturb the run. The .inprogress
 * marker is informational here, never an error.
 */
void
cmdWatch(const std::string& prefix)
{
    const bool in_progress =
        std::ifstream(prefix + ".inprogress").good();
    std::string text;
    json::ValuePtr hb;
    if (readFile(prefix + ".heartbeat.json", text, nullptr)) {
        std::string error;
        hb = json::parse(text, &error);
        if (hb == nullptr) {
            fail(prefix + ".heartbeat.json: " + error);
        }
    }
    std::vector<json::ValuePtr> samples;
    if (readFile(prefix + ".metrics.part", text, nullptr)
        || readFile(prefix + ".metrics.jsonl", text, nullptr)) {
        samples = parseLinesLenient(text);
    }
    if (hb == nullptr && samples.empty()) {
        fail(prefix + ": nothing to watch (no .heartbeat.json, "
                      ".metrics.part or .metrics.jsonl; heartbeats come "
                      "from ndpext_sim --telemetry/--checkpoint runs)");
    }

    std::printf("watch: %s\n", prefix.c_str());
    if (hb != nullptr) {
        const json::Value* done_v = hb->get("done");
        const bool done =
            done_v != nullptr && done_v->isBool() && done_v->boolean;
        std::printf("  status: %s\n",
                    done          ? "finished"
                    : in_progress ? "running (in-progress marker present)"
                                  : "interrupted (no in-progress marker; "
                                    "resume from its newest checkpoint)");
        const double cycles = hb->num("cycles");
        const double horizon = hb->num("horizonCycles");
        const double accesses = hb->num("accesses");
        const double total_hint = hb->num("totalAccessesHint");
        std::printf("  epoch %.0f, cycle %.0f", hb->num("epoch"), cycles);
        if (horizon > 0.0) {
            std::printf(" / horizon %.0f (%.1f%%)", horizon,
                        100.0 * std::min(cycles / horizon, 1.0));
        }
        std::printf(", %.0f accesses", accesses);
        if (total_hint > 0.0) {
            std::printf(" / %.0f (%.1f%%)", total_hint,
                        100.0 * std::min(accesses / total_hint, 1.0));
        }
        std::printf("\n");
        const double elapsed_ms =
            hb->num("wallUnixMs") - hb->num("startUnixMs");
        const double progressed = cycles - hb->num("startCycles");
        if (elapsed_ms > 0.0 && progressed > 0.0) {
            std::printf("  wall: %.1fs this attempt, %.2f Mcycles/s",
                        elapsed_ms / 1e3,
                        progressed / elapsed_ms / 1e3);
            if (!done && horizon > cycles) {
                std::printf(", ETA ~%.1fs to horizon",
                            (horizon - cycles) * elapsed_ms / progressed
                                / 1e3);
            }
            std::printf("\n");
        }
        const json::Value* tenants = hb->get("tenants");
        if (tenants != nullptr && tenants->isArray()
            && !tenants->array.empty()) {
            std::printf("  %-12s %-11s %-9s %-9s %-9s %s\n", "tenant",
                        "qos", "slo", "retired", "viols", "attain");
            for (const auto& t : tenants->array) {
                const double retired = t->num("retired");
                const double viols = t->num("violations");
                std::printf("  %-12s %-11s %-9.0f %-9.0f %-9.0f",
                            t->str("name").c_str(),
                            t->num("reserved") != 0.0 ? "reserved"
                                                      : "best-effort",
                            t->num("sloCycles"), retired, viols);
                if (retired <= 0.0) {
                    std::printf(" %6s\n", "n/a");
                } else {
                    std::printf(" %5.2f%%%s\n",
                                100.0 * (1.0 - viols / retired),
                                viols > 0.0 ? "  <-- violations burning"
                                            : "");
                }
            }
        }
    } else {
        std::printf("  status: %s (no heartbeat file)\n",
                    in_progress ? "running (in-progress marker present)"
                                : "finished");
    }

    // Interval view from flushed metric samples: the SLO burn rate of
    // the most recent completed epoch.
    if (samples.size() >= 2) {
        const json::Value* prev =
            samples[samples.size() - 2]->get("metrics");
        const json::Value* last = samples.back()->get("metrics");
        if (prev != nullptr && last != nullptr) {
            const std::vector<std::string> names = tenantNames(*last);
            if (!names.empty()) {
                std::printf("  last flushed epoch (%.0f) attainment:",
                            samples.back()->num("epoch"));
                for (const std::string& name : names) {
                    const std::string base = "tenant." + name;
                    const double dr = last->num(base + ".retired")
                        - prev->num(base + ".retired");
                    const double dv = last->num(base + ".sloViolations")
                        - prev->num(base + ".sloViolations");
                    if (dr <= 0.0) {
                        std::printf(" %s:n/a", name.c_str());
                    } else {
                        std::printf(" %s:%.2f%%", name.c_str(),
                                    100.0 * (1.0 - dv / dr));
                    }
                }
                std::printf("\n");
            }
        }
    }
    std::printf("  %zu flushed metric sample(s) on disk\n",
                samples.size());
}

void
cmdCheck(const Run& run)
{
    checkMetricsSchema(run);
    checkDecisionsSchema(run);
    checkTraceSchema(run);
    checkExemplarSchema(run);
    // Every exemplar's flow id must be linked in the trace: its span
    // tree carries matching s/t/f events (checked pairwise above).
    if (!run.exemplars.empty()) {
        std::map<std::uint64_t, bool> flow_ids;
        for (const auto& ev : run.trace->get("traceEvents")->array) {
            if (ev->str("ph") == "s" && ev->get("id") != nullptr) {
                flow_ids[static_cast<std::uint64_t>(
                    ev->get("id")->number)] = true;
            }
        }
        for (std::size_t i = 0; i < run.exemplars.size(); ++i) {
            const std::uint64_t fid = static_cast<std::uint64_t>(
                run.exemplars[i]->num("flow"));
            if (flow_ids.find(fid) == flow_ids.end()) {
                fail(run.prefix + ".exemplars.jsonl line "
                     + std::to_string(i + 1) + ": flow id "
                     + std::to_string(fid) + " has no trace flow events");
            }
        }
    }
    // Low sample counts are flagged but do not fail the check: short
    // smoke runs are still valid schema-wise, just statistically thin.
    const std::size_t low = warnLowSamples(stageSamples(run));
    std::printf("ok: %zu epoch sample(s), %zu decision(s), %zu trace "
                "event(s), %zu exemplar(s)%s\n",
                run.epochs.size(), run.decisions.size(),
                run.trace->get("traceEvents")->array.size(),
                run.exemplars.size(),
                low > 0 ? " [low-sample percentiles flagged above]" : "");
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        usageError("missing command");
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        std::printf("%s", kUsage);
        return 0;
    }
    if (cmd == "watch") {
        if (argc != 3) {
            usageError("watch takes exactly one prefix");
        }
        cmdWatch(argv[2]);
        return 0;
    }
    if (cmd == "summary" || cmd == "check" || cmd == "topdown"
        || cmd == "slo" || cmd == "trace") {
        if (argc != 3) {
            usageError(cmd + " takes exactly one prefix");
        }
        if ((cmd == "check" || cmd == "slo")
            && std::strncmp(argv[2], "--stats-json=", 13) == 0) {
            const std::string path = argv[2] + 13;
            if (path.empty()) {
                usageError(cmd + " --stats-json= needs a file name");
            }
            if (cmd == "check") {
                cmdCheckStatsJson(path);
            } else {
                cmdSloStatsJson(path);
            }
            return 0;
        }
        const Run run = loadRun(argv[2]);
        if (cmd == "summary") {
            cmdSummary(run);
        } else if (cmd == "topdown") {
            cmdTopdown(run);
        } else if (cmd == "slo") {
            cmdSlo(run);
        } else if (cmd == "trace") {
            cmdTrace(run);
        } else {
            cmdCheck(run);
        }
        return 0;
    }
    if (cmd == "diff") {
        bool strict = false;
        double tolerance = 0.0;
        std::vector<std::string> prefixes;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--strict") {
                strict = true;
            } else if (arg.rfind("--tolerance=", 0) == 0) {
                if (!parseReal(std::string_view(arg).substr(12), 0.0,
                               kMaxReal, &tolerance)) {
                    usageError("bad --tolerance value '" + arg + "'");
                }
            } else if (!arg.empty() && arg[0] == '-') {
                usageError("unknown diff flag '" + arg + "'");
            } else {
                prefixes.push_back(arg);
            }
        }
        if (prefixes.size() != 2) {
            usageError("diff takes exactly two prefixes");
        }
        const Run a = loadRun(prefixes[0]);
        const Run b = loadRun(prefixes[1]);
        const std::size_t violations = cmdDiff(a, b, tolerance);
        if (strict && violations > 0) {
            std::fprintf(stderr,
                         "ndpext_report: diff --strict: %zu violation(s)\n",
                         violations);
            return 1;
        }
        return 0;
    }
    usageError("unknown command '" + cmd + "'");
}
