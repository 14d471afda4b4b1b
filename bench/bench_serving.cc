/**
 * Multi-tenant serving frontend: a four-tenant mixed colocation
 * (embedding lookups, two graph workloads, a tensor kernel) driven
 * open-loop, once at nominal load and once overloaded, under Poisson
 * and bursty (MMPP) arrival processes. Deterministic columns
 * (arrivals, retired, p50/p99 request latency, SLO attainment) pin the
 * serving path under bench/baselines/; run cycles are recorded per
 * regime.
 *
 * Expected shape: at nominal load every tenant meets its SLO; under
 * overload the reserved tenant (emb: 25% NDP-cache carve-out, served
 * first) keeps strictly better p99 SLO attainment than the best-effort
 * tenants, and bursty arrivals hurt tails more than Poisson at the
 * same mean rate.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "serving/serving_workload.h"
#include "telemetry/telemetry.h"
#include "telemetry/tiny_json.h"

using namespace ndpext;

namespace {

struct Regime
{
    const char* label;
    const char* arrival;
    double loadMult; // divides the mean inter-arrival period
};

ServingConfig
servingConfig(const Regime& regime, Cycles horizon)
{
    const auto tenant = [&regime](const char* name, const char* wl,
                                  double period, bool reserved) {
        TenantSpec t;
        t.name = name;
        t.workload = wl;
        t.arrival = regime.arrival;
        t.periodCycles = period / regime.loadMult;
        t.requestAccesses = 64;
        t.reserved = reserved;
        t.reservePct = reserved ? 25.0 : 0.0;
        t.sloCycles = 120'000;
        return t;
    };
    ServingConfig cfg;
    cfg.horizonCycles = horizon;
    cfg.tenants = {
        tenant("emb", "recsys", 60'000, true),
        tenant("graph", "pr", 80'000, false),
        tenant("tensor", "mv", 80'000, false),
        tenant("web", "bfs", 80'000, false),
    };
    return cfg;
}

/**
 * Where each tenant's tail goes: the dominant stage (by summed cycles)
 * across the slow exemplars the request tracer retained, read back from
 * the rendered exemplar lines. Printed as context under the table; not
 * a recorded baseline column (telemetry is observer-only and the
 * deterministic columns already pin the run).
 */
std::string
tailBlame(const Telemetry& tel, const ServingConfig& sc)
{
    std::vector<json::ValuePtr> lines;
    std::string error;
    const bool parsed = json::parseLines(
        std::string(tel.pending(Telemetry::kExemplars)), lines, &error);
    NDP_ASSERT(parsed, "exemplar lines do not parse: ", error);
    std::string out;
    for (std::size_t t = 0; t < sc.tenants.size(); ++t) {
        double total = 0.0;
        // (stage, summed cycles) in the lines' stage order.
        std::vector<std::pair<std::string, double>> perStage;
        for (const json::ValuePtr& line : lines) {
            if (line->str("kind") != "slow"
                || line->str("tenant") != sc.tenants[t].name) {
                continue;
            }
            total += line->num("latency");
            const auto& stages = line->get("stages")->object;
            perStage.resize(stages.size());
            for (std::size_t s = 0; s < stages.size(); ++s) {
                perStage[s].first = stages[s].first;
                perStage[s].second += stages[s].second->number;
            }
        }
        std::size_t top = 0;
        for (std::size_t s = 1; s < perStage.size(); ++s) {
            if (perStage[s].second > perStage[top].second) {
                top = s;
            }
        }
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s%s=%s(%.0f%%)",
                      t == 0 ? "" : " ", sc.tenants[t].name.c_str(),
                      total == 0.0 ? "none" : perStage[top].first.c_str(),
                      total == 0.0 ? 0.0
                                   : 100.0 * perStage[top].second / total);
        out += buf;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const Cycles horizon = args.quick ? 1'200'000 : 4'000'000;
    const std::vector<Regime> regimes = {
        {"poisson-nominal", "poisson", 1.0},
        {"poisson-overload", "poisson", 8.0},
        {"bursty-nominal", "bursty", 1.0},
        {"bursty-overload", "bursty", 8.0},
    };

    std::printf("Four-tenant open-loop serving (reserved tenant: emb, "
                "25%% carve-out):\n\n");
    bench::Table table(
        {"arrivals", "retired", "latP50", "latP99", "attain"});
    for (const Regime& regime : regimes) {
        SystemConfig cfg = bench::benchConfig(args);
        const ServingConfig sc = servingConfig(regime, horizon);
        ServingWorkload w(sc, cfg.runtime.epochCycles);
        w.prepare(bench::benchWorkloadParams(args, cfg.numUnits()));
        TelemetryConfig tc;
        tc.traceRequests = true; // in-memory tail exemplars only
        tc.packetSampleEvery = 0; // tailBlame reads no packet slices
        Telemetry tel(tc);
        const RunResult r =
            bench::runPolicy(cfg, PolicyKind::NdpExt, w, &tel);
        std::printf("  %-17s tail blame: %s\n", regime.label,
                    tailBlame(tel, sc).c_str());

        bench::recordStat(std::string(regime.label) + ".cycles",
                          static_cast<double>(r.cycles));
        for (const TenantSpec& t : sc.tenants) {
            const std::string base = "tenant." + t.name;
            table.addRow(
                std::string(regime.label) + "." + t.name,
                {r.stats.get(base + ".arrivals"),
                 r.stats.get(base + ".retired"),
                 r.stats.get(base + ".latencyP50"),
                 r.stats.get(base + ".latencyP99"),
                 r.stats.get(base + ".sloAttainment")});
        }
    }
    table.print();
    std::printf("\nshape: nominal load meets every SLO; under overload "
                "the reserved tenant keeps the best p99 attainment.\n");
    return bench::finishStats(args);
}
