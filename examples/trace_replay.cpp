/**
 * Trace replay + automatic stream inference: the adoption path for users
 * with their own applications.
 *
 * 1. Builds a small trace programmatically (normally you would load a
 *    file with TraceWorkload::parseFile).
 * 2. Shows the StreamClassifier inferring stream types from raw address
 *    sequences -- the runtime-side building block for the automatic
 *    annotation the paper leaves to future work.
 * 3. Replays the trace through the full NDPExt system.
 */

#include <cstdio>
#include <sstream>

#include "common/rng.h"
#include "stream/stream_inference.h"
#include "system/ndp_system.h"
#include "workloads/trace_workload.h"

using namespace ndpext;

int
main()
{
    // --- 1. Infer stream types from raw address observations. ---
    std::vector<Addr> scan;
    for (Addr a = 0x100000; a < 0x100000 + 4096 * 4; a += 4) {
        scan.push_back(a);
    }
    const ZipfSampler zipf(8192, 0.8);
    Rng rows(3);
    std::vector<Addr> gather;
    for (int i = 0; i < 4000; ++i) {
        gather.push_back(0x200000 + zipf.next(rows) * 8);
    }

    const auto scan_info = inferStream(scan);
    const auto gather_info = inferStream(gather);
    std::printf("inferred 'scan'  : %s, elem %u B, stride %lld, "
                "regularity %.2f\n",
                scan_info->type == StreamType::Affine ? "affine"
                                                      : "indirect",
                scan_info->elemSize,
                static_cast<long long>(scan_info->strideElems),
                scan_info->regularity);
    std::printf("inferred 'gather': %s, elem %u B, reuse %.2f\n",
                gather_info->type == StreamType::Affine ? "affine"
                                                        : "indirect",
                gather_info->elemSize, gather_info->reuse);

    // --- 2. Build a trace (stream decls + per-core accesses). ---
    std::ostringstream trace;
    trace << "stream scan affine 0x100000 " << 4096 * 4 << " 4 ro\n";
    trace << "stream gather indirect 0x200000 " << 8192 * 8 << " 8 rw\n";
    Rng rng(5);
    for (int core = 0; core < 8; ++core) {
        for (int i = 0; i < 500; ++i) {
            if (i % 3 != 0) {
                trace << "a " << core << " 0 " << (core * 512 + i) % 4096
                      << " r\n";
            } else {
                trace << "a " << core << " 1 " << rng.nextBounded(8192)
                      << (rng.nextBool(0.2) ? " w" : " r") << "\n";
            }
        }
    }

    // --- 3. Replay on an 8-unit NDPExt machine. ---
    std::istringstream in(trace.str());
    auto workload = TraceWorkload::parse(in, 8);

    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.stacksX = 2;
    cfg.stacksY = 1;
    cfg.unitsX = 2;
    cfg.unitsY = 2;
    cfg.unitCacheBytes = 256_KiB;
    cfg.finalize();
    NdpSystem system(cfg, PolicyKind::NdpExt);
    const RunResult result = system.run(*workload);

    std::printf("\nreplayed %llu accesses in %llu cycles "
                "(miss rate %.2f, %llu write exceptions)\n",
                static_cast<unsigned long long>(result.accesses),
                static_cast<unsigned long long>(result.cycles),
                result.missRate,
                static_cast<unsigned long long>(result.writeExceptions));
    return 0;
}
