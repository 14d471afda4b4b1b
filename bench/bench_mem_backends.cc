/**
 * Memory-backend comparison: the same workload through each registered
 * backend on the extended-memory role. Deterministic columns (cycles,
 * extended-DRAM row-hit rate, controller stall counters) pin the
 * backends' modelled behavior under bench/baselines/; the accesses/s
 * column is host wall clock and therefore advisory.
 *
 * Expected shape: FR-FCFS recovers the most row hits by reordering
 * around conflicting streams; refresh loses hits to periodic all-bank
 * precharge and adds blackout/wake stall cycles.
 */

#include <cstdio>

#include "bench_util.h"
#include "mem/mem_backend_registry.h"

using namespace ndpext;

int
main(int argc, char** argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const std::string workload = "pr";

    std::printf("Memory backends on the extended-memory role "
                "(workload %s):\n\n",
                workload.c_str());
    bench::Table table(
        {"cycles", "extRowHitRate", "extStallCyc", "engineAccPerSec"});
    for (const std::string& name : memBackends().names()) {
        SystemConfig cfg = bench::benchConfig(args);
        cfg.memBackendExt.backend = name;
        cfg.finalize();

        Workload& w =
            bench::preparedWorkload(workload, args, cfg.numUnits());
        const RunResult r =
            bench::runPolicy(cfg, PolicyKind::NdpExt, w);

        const double hits = r.stats.get("ext.dram.rowHits");
        const double misses = r.stats.get("ext.dram.rowMisses");
        const double hit_rate =
            hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
        // Stalls the simple banked model does not have: scheduler queue
        // backpressure or refresh/wake windows (0 where not modelled).
        const double stall_cycles =
            r.stats.get("ext.dram.queueStallCycles")
            + r.stats.get("ext.dram.refreshStallCycles");
        table.addRow(name, {static_cast<double>(r.cycles), hit_rate,
                            stall_cycles, r.engineAccessesPerSec()});
    }
    table.print();
    std::printf("\nshape: frfcfs reorders for the highest row-hit rate; "
                "refresh loses hits and cycles to refresh windows.\n");
    return bench::finishStats(args);
}
