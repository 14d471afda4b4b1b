/**
 * Custom placement policy: the Configurator interface lets you plug your
 * own cache-configuration algorithm into the epoch runtime. This example
 * implements a naive "home-unit" policy -- each stream gets all of its
 * space on one hashed unit -- wires up the full machine by hand (the
 * lower-level API beneath NdpSystem), runs PageRank, and compares against
 * NDPExt's Algorithm 1.
 */

#include <cstdio>
#include <queue>

#include "common/rng.h"
#include "ndp/stream_cache.h"
#include "runtime/ndp_runtime.h"
#include "system/system_config.h"
#include "workloads/workload.h"

using namespace ndpext;

namespace {

/** All of a stream's space on one hashed "home" unit: terrible placement
 *  on purpose, to show how much co-location matters. */
class HomeUnitConfigurator : public Configurator
{
  public:
    HomeUnitConfigurator(std::uint32_t num_units,
                         std::uint32_t rows_per_unit)
        : numUnits_(num_units), rowsPerUnit_(rows_per_unit)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override
    {
        std::vector<std::pair<StreamId, StreamAlloc>> out;
        std::vector<std::uint32_t> used(numUnits_, 0);
        for (const auto& d : demands) {
            StreamAlloc alloc(numUnits_);
            alloc.numGroups = 1;
            const UnitId home =
                static_cast<UnitId>(mix64(d.sid + 1) % numUnits_);
            alloc.shareRows[home] = rowsPerUnit_ - used[home];
            alloc.rowBase[home] = used[home];
            used[home] = rowsPerUnit_;
            out.emplace_back(d.sid, std::move(alloc));
        }
        return out;
    }

    bool reconfigures() const override { return false; }
    std::string name() const override { return "home-unit"; }

  private:
    std::uint32_t numUnits_;
    std::uint32_t rowsPerUnit_;
};

/** Drive one full run with an arbitrary configurator. */
Cycles
runWith(const SystemConfig& cfg, const Workload& workload,
        std::unique_ptr<Configurator> configurator)
{
    StreamTable table;
    workload.registerStreams(table);
    MeshTopology topo(cfg.stacksX, cfg.stacksY, cfg.unitsX, cfg.unitsY);
    NocModel noc(topo, cfg.noc);
    ExtendedMemory ext(cfg.cxl, DramTimingParams::ddr5Extended(),
                       cfg.coreFreqMhz);
    StreamCacheController cache(cfg.cache, table, noc, ext,
                                cfg.unitDram(), cfg.unitCacheBytes,
                                cfg.coreFreqMhz);
    NdpRuntime runtime(cfg.runtime, cache, std::move(configurator));

    std::vector<InOrderCore> cores;
    std::vector<std::unique_ptr<AccessGenerator>> gens;
    for (CoreId c = 0; c < cfg.numUnits(); ++c) {
        cores.emplace_back(c, cfg.core, cache);
        gens.push_back(workload.makeGenerator(c));
    }
    runtime.start();

    using HeapItem = std::pair<Cycles, CoreId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        ready;
    for (CoreId c = 0; c < cfg.numUnits(); ++c) {
        ready.emplace(0, c);
    }
    Cycles next_epoch = cfg.runtime.epochCycles;
    Cycles finish = 0;
    while (!ready.empty()) {
        const auto [when, c] = ready.top();
        ready.pop();
        if (when >= next_epoch) {
            runtime.onEpochEnd(next_epoch);
            next_epoch += cfg.runtime.epochCycles;
            ready.emplace(when, c);
            continue;
        }
        if (cores[c].step(*gens[c])) {
            ready.emplace(cores[c].now(), c);
        } else {
            finish = std::max(finish, cores[c].now());
        }
    }
    return finish;
}

} // namespace

int
main()
{
    SystemConfig cfg = SystemConfig::scaledDefault();
    cfg.finalize();

    WorkloadParams params;
    params.numCores = cfg.numUnits();
    params.footprintBytes = 96_MiB;
    params.accessesPerCore = 15000;
    auto workload = makeWorkload("pr");
    workload->prepare(params);

    const std::uint32_t rows_per_unit = static_cast<std::uint32_t>(
        cfg.unitCacheBytes / cfg.unitDram().rowBytes);

    const Cycles naive = runWith(
        cfg, *workload,
        std::make_unique<HomeUnitConfigurator>(cfg.numUnits(),
                                               rows_per_unit));

    // NDPExt's Algorithm 1 through the same API.
    MeshTopology topo(cfg.stacksX, cfg.stacksY, cfg.unitsX, cfg.unitsY);
    NocModel noc(topo, cfg.noc);
    ConfigParams cp;
    cp.numUnits = cfg.numUnits();
    cp.rowsPerUnit = rows_per_unit;
    cp.rowBytes = static_cast<std::uint32_t>(cfg.unitDram().rowBytes);
    cp.affineCapBytesPerUnit = cfg.cache.affineCapBytesPerUnit;
    const Cycles ndpext = runWith(
        cfg, *workload, std::make_unique<NdpExtConfigurator>(cp, noc));

    std::printf("home-unit policy : %10.2f Mcycles\n",
                static_cast<double>(naive) / 1e6);
    std::printf("NDPExt Algorithm1: %10.2f Mcycles  (%.2fx faster)\n",
                static_cast<double>(ndpext) / 1e6,
                static_cast<double>(naive) / static_cast<double>(ndpext));
    return 0;
}
