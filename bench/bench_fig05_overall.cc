/**
 * Fig. 5 reproduction: overall performance of every cache-management
 * scheme on all 13 workloads, normalized to the non-NDP host, for the
 * HBM-style (--mem=hbm, Fig. 5a) or HMC-style (--mem=hmc, Fig. 5b) NDP
 * system. The shapes to reproduce: every NDP scheme beats the host by
 * several x; NDPExt is the best scheme on (almost) every workload; Nexus
 * is the strongest baseline; NDPExt-static trails NDPExt.
 */

#include <cstdio>

#include "bench_util.h"

using namespace ndpext;

int
main(int argc, char** argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const SystemConfig cfg = bench::benchConfig(args);

    const std::vector<std::string>& names =
        args.workloads.empty() ? allWorkloadNames() : args.workloads;
    const std::vector<PolicyKind> policies = {
        PolicyKind::Jigsaw,       PolicyKind::Whirlpool,
        PolicyKind::Nexus,        PolicyKind::NdpExtStatic,
        PolicyKind::NdpExt,
    };

    std::printf("Fig. 5(%s): speedup over non-NDP host (%s NDP)\n\n",
                args.memType == NdpMemType::Hbm3 ? "a" : "b",
                args.memType == NdpMemType::Hbm3 ? "HBM3" : "HMC2");

    std::vector<std::string> cols;
    for (const auto p : policies) {
        cols.push_back(policyName(p));
    }
    cols.push_back("ndpext/nexus");
    bench::Table table(cols);

    std::map<std::string, std::vector<double>> speedups;
    for (const auto& name : names) {
        Workload& w = bench::preparedWorkload(name, args, cfg.numUnits());
        const RunResult host = bench::runHost(w);
        std::vector<double> row;
        double nexus_speedup = 1.0;
        double ndpext_speedup = 1.0;
        for (const auto policy : policies) {
            const RunResult r = bench::runPolicy(cfg, policy, w);
            const double speedup = static_cast<double>(host.cycles)
                / static_cast<double>(r.cycles);
            row.push_back(speedup);
            speedups[policyName(policy)].push_back(speedup);
            if (policy == PolicyKind::Nexus) {
                nexus_speedup = speedup;
            }
            if (policy == PolicyKind::NdpExt) {
                ndpext_speedup = speedup;
            }
        }
        row.push_back(ndpext_speedup / nexus_speedup);
        speedups["ndpext/nexus"].push_back(ndpext_speedup / nexus_speedup);
        table.addRow(name, row);
    }

    // Geomean row.
    std::vector<double> gm;
    for (const auto p : policies) {
        gm.push_back(bench::geomean(speedups[policyName(p)]));
    }
    gm.push_back(bench::geomean(speedups["ndpext/nexus"]));
    table.addRow("geomean", gm);
    table.print();

    std::printf("\npaper shape: NDP gains 4.3x-7.3x over host; "
                "NDPExt/Nexus ~1.41x avg (HBM) / 1.48x (HMC), "
                "up to 2.43x on recsys;\n"
                "NDPExt/NDPExt-static ~1.2x avg.\n"
                "note: the scaled simulation runs 64 NDP cores vs the "
                "paper's 128 (the host keeps its 64),\n"
                "so host-relative bars under-credit NDP by ~2x; the "
                "scheme-vs-scheme columns are unaffected.\n");
    return bench::finishStats(args);
}
