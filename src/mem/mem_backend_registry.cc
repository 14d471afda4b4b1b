#include "mem/mem_backend_registry.h"

#include "common/logging.h"
#include "mem/backend_refresh.h"
#include "mem/backend_sched.h"
#include "mem/dram.h"

namespace ndpext {

const NamedTable<MemBackendInfo>&
memBackends()
{
    static const NamedTable<MemBackendInfo> table{
        "memory backend",
        {
            {
                "banked",
                "Banked row-buffer model with gap-filling bank occupancy "
                "(default; bit-identical to the historical monolithic DRAM "
                "model)",
                {},
                [](const MemBackendConfig& cfg, std::uint64_t freq_mhz) {
                    return std::make_unique<DramDevice>(cfg.timing, freq_mhz);
                },
            },
            {
                "fcfs",
                "FCFS controller: bounded per-bank queue, strict "
                "arrival-order service (no row-hit reordering)",
                {
                    {"queue", "per-bank request queue entries (default 8)"},
                },
                [](const MemBackendConfig& cfg, std::uint64_t freq_mhz) {
                    return std::make_unique<SchedDramBackend>(
                        cfg, freq_mhz, /*row_hit_first=*/false);
                },
            },
            {
                "frfcfs",
                "FR-FCFS controller: bounded per-bank queue, row-hit-first "
                "reordering with a starvation cap",
                {
                    {"queue", "per-bank request queue entries (default 8)"},
                    {"cap", "FR-FCFS starvation cap: max consecutive "
                            "reordered row hits per bank (default 4)"},
                },
                [](const MemBackendConfig& cfg, std::uint64_t freq_mhz) {
                    return std::make_unique<SchedDramBackend>(
                        cfg, freq_mhz, /*row_hit_first=*/true);
                },
            },
            {
                "refresh",
                "Banked model plus tREFI/tRFC refresh blackouts and "
                "fast/slow-exit power-down idle states with wake penalties",
                {
                    {"refi", "refresh interval tREFI in DRAM cycles "
                             "(default 9360)"},
                    {"rfc", "refresh cycle time tRFC in DRAM cycles "
                            "(default 708)"},
                    {"pd-idle", "idle core cycles before fast-exit "
                                "power-down (default 2000)"},
                    {"pd-exit", "fast-exit wake penalty, core cycles "
                                "(default 30)"},
                    {"sr-idle", "idle core cycles before self-refresh "
                                "(default 200000)"},
                    {"sr-exit", "self-refresh wake penalty, core cycles "
                                "(default 500)"},
                },
                [](const MemBackendConfig& cfg, std::uint64_t freq_mhz) {
                    return std::make_unique<RefreshDramBackend>(cfg, freq_mhz);
                },
            },
        },
    };
    return table;
}

std::unique_ptr<MemBackend>
createMemBackend(const MemBackendConfig& cfg, std::uint64_t core_freq_mhz)
{
    const MemBackendInfo* info = memBackends().find(cfg.backend);
    if (info == nullptr) {
        NDP_FATAL("unknown memory backend: ", cfg.backend,
                  " (validate configs with SystemConfig::validate first)");
    }
    std::unique_ptr<MemBackend> backend =
        info->factory(cfg, core_freq_mhz);
    NDP_ASSERT(backend != nullptr, "backend factory returned null");
    backend->setBackendName(cfg.backend);
    return backend;
}

} // namespace ndpext
