/**
 * Graceful degradation under injected faults (robustness study beyond the
 * paper's figures; DESIGN.md "Fault model & degraded-mode semantics").
 *
 * Default experiment: kill one NDP unit, then a whole stack (8 of 64
 * units), ~30% into each run, and compare policies. NDPExt's runtime
 * reconfigures out-of-epoch and re-places every stream around the dead
 * units, so it keeps almost all of its performance. Static placements
 * cannot re-place: every access that hashes to a dead slice redirects to
 * extended memory for the rest of the run -- the headline gap of this
 * harness (at one dead stack, static-interleave loses ~4x more
 * performance than NDPExt).
 *
 * --exp=sweep instead sweeps the CXL transient link-error rate and
 * reports the slowdown from retry/backoff traffic.
 *
 * Columns: norm. perf = fault-free cycles / faulty cycles (1.0 = no loss)
 *          redirects  = accesses served from ext memory because their
 *                       cache location sat on a failed unit
 *          emerg.rcfg = out-of-epoch reconfigurations
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace ndpext;

namespace {

const std::vector<PolicyKind> kPolicies = {
    PolicyKind::NdpExt,
    PolicyKind::NdpExtStatic,
    PolicyKind::StaticInterleave,
};

void
unitFailureStudy(const bench::BenchArgs& args)
{
    const SystemConfig clean = bench::benchConfig(args);
    const UnitId stack_base =
        clean.numUnits() / 2; // mid-mesh stack, first unit
    const std::uint32_t stack_units = clean.unitsX * clean.unitsY;

    // Fault-free baselines, shared by both failure scenarios.
    std::vector<std::vector<RunResult>> base(kPolicies.size());
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        for (const auto& name : bench::analysisWorkloads()) {
            const Workload& w =
                bench::preparedWorkload(name, args, clean.numUnits());
            base[p].push_back(
                bench::runPolicy(clean, kPolicies[p], w));
        }
    }

    struct Scenario
    {
        const char* title;
        std::uint32_t units;
    };
    for (const Scenario sc : {Scenario{"1 unit fails", 1u},
                              Scenario{"1 stack fails", stack_units}}) {
        std::printf("%s ~30%% into the run "
                    "(geomean over analysis workloads)\n\n",
                    sc.title);
        bench::Table table({"norm. perf", "redirects", "emerg.rcfg"});
        for (std::size_t p = 0; p < kPolicies.size(); ++p) {
            std::vector<double> perf;
            double redirects = 0.0;
            double reconfigs = 0.0;
            for (std::size_t i = 0;
                 i < bench::analysisWorkloads().size(); ++i) {
                const Workload& w = bench::preparedWorkload(
                    bench::analysisWorkloads()[i], args,
                    clean.numUnits());
                // Fail the units once the caches are warm and the epoch
                // runtime has profiled the streams.
                SystemConfig faulty = clean;
                faulty.faults.seed = 13;
                const Cycles at = static_cast<Cycles>(
                    static_cast<double>(base[p][i].cycles) * 0.3);
                for (std::uint32_t u = 0; u < sc.units; ++u) {
                    faulty.faults.unitFailures.push_back(
                        UnitFailure{stack_base + u, at});
                }
                const RunResult r =
                    bench::runPolicy(faulty, kPolicies[p], w);
                perf.push_back(static_cast<double>(base[p][i].cycles)
                               / static_cast<double>(r.cycles));
                redirects += static_cast<double>(
                    r.degraded.failedUnitRedirects);
                reconfigs += static_cast<double>(
                    r.degraded.emergencyReconfigs);
            }
            table.addRow(policyName(kPolicies[p]),
                         {bench::geomean(perf), redirects, reconfigs});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("ndpext re-places streams around dead units (emergency "
                "reconfig); static placements redirect to extended "
                "memory until the run ends.\n");
}

void
linkErrorSweep(const bench::BenchArgs& args)
{
    std::printf("CXL transient link-error sweep, ndpext "
                "(geomean over analysis workloads)\n\n");
    bench::Table table({"norm. perf", "link retries"});

    const std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
    std::vector<double> base_cycles;
    for (const double rate : rates) {
        SystemConfig cfg = bench::benchConfig(args);
        cfg.faults.seed = 13;
        cfg.faults.cxlTransientProb = rate;
        std::vector<double> cycles;
        double retries = 0.0;
        for (const auto& name : bench::analysisWorkloads()) {
            const Workload& w =
                bench::preparedWorkload(name, args, cfg.numUnits());
            const RunResult r =
                bench::runPolicy(cfg, PolicyKind::NdpExt, w);
            cycles.push_back(static_cast<double>(r.cycles));
            retries += static_cast<double>(r.degraded.linkRetries);
        }
        const double gm = bench::geomean(cycles);
        if (base_cycles.empty()) {
            base_cycles.push_back(gm);
        }
        char label[32];
        std::snprintf(label, sizeof(label), "p=%g", rate);
        table.addRow(label, {base_cycles.front() / gm, retries});
    }
    table.print();
}

} // namespace

int
main(int argc, char** argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    if (args.exp == "sweep") {
        linkErrorSweep(args);
    } else {
        unitFailureStudy(args);
    }
    return bench::finishStats(args);
}
