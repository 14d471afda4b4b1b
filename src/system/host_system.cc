#include "system/host_system.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/logging.h"

namespace ndpext {

HostSystem::HostSystem(const HostParams& params) : params_(params)
{
}

RunResult
HostSystem::run(const Workload& workload)
{
    NDP_ASSERT(!used_, "HostSystem is single-use");
    used_ = true;
    NDP_ASSERT(workload.prepared());
    NDP_ASSERT(workload.params().numCores == params_.numCores,
               "workload cores != host cores");

    HostLlcController llc(params_);
    std::vector<InOrderCore> cores;
    cores.reserve(params_.numCores);
    std::vector<std::unique_ptr<AccessGenerator>> gens;
    for (CoreId c = 0; c < params_.numCores; ++c) {
        cores.emplace_back(c, core_, llc);
        gens.push_back(workload.makeGenerator(c));
    }

    using HeapItem = std::pair<Cycles, CoreId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        ready;
    for (CoreId c = 0; c < params_.numCores; ++c) {
        ready.emplace(cores[c].now(), c);
    }
    Cycles finish = 0;
    while (!ready.empty()) {
        const auto [when, c] = ready.top();
        (void)when;
        ready.pop();
        if (cores[c].step(*gens[c])) {
            ready.emplace(cores[c].now(), c);
        } else {
            finish = std::max(finish, cores[c].now());
        }
    }

    RunResult res;
    res.workload = workload.name();
    res.policy = "host";
    res.cycles = finish;
    res.bd = llc.breakdown();
    res.missRate = 1.0 - llc.llcHitRate();
    for (const auto& core : cores) {
        res.accesses += core.accesses();
        res.l1Hits += core.l1Hits();
    }

    const double seconds = static_cast<double>(finish) / 2e9;
    // Host static power: 64 big cores + LLC, coarse 40 W class.
    res.energy.staticNj = 40.0 * seconds * 1e9;
    res.energy.extDramNj = llc.dramEnergyNj();
    res.energy.icnNj = llc.nocEnergyNj();

    llc.report(res.stats, "llc");
    res.stats.set("cycles", static_cast<double>(finish));
    return res;
}

} // namespace ndpext
