#include "mem/mem_backend_registry.h"

#include "common/logging.h"
#include "mem/backend_refresh.h"
#include "mem/backend_sched.h"
#include "mem/dram.h"

namespace ndpext {

namespace {

/** Queue depths and DRAM-clock timings are 32-bit counts. */
constexpr ValueRange kPositiveU32{
    .lo = 1, .hi = 4294967295.0, .integer = true};
/** Core-clock cycles: whole doubles are exact up to 2^53. */
constexpr ValueRange kCycles{.hi = 9007199254740992.0, .integer = true};

} // namespace

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
                    {"queue", "per-bank request queue entries (default 8)",
                     kPositiveU32},
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
                    {"queue", "per-bank request queue entries (default 8)",
                     kPositiveU32},
                    {"cap",
                     "FR-FCFS starvation cap: max consecutive "
                     "reordered row hits per bank (default 4)",
                     kPositiveU32},
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
                    {"refi",
                     "refresh interval tREFI in DRAM cycles (default 9360)",
                     kPositiveU32},
                    {"rfc",
                     "refresh cycle time tRFC in DRAM cycles (default 708)",
                     {.hi = kPositiveU32.hi, .integer = true}},
                    {"pd-idle",
                     "idle core cycles before fast-exit power-down "
                     "(default 2000)",
                     kCycles},
                    {"pd-exit",
                     "fast-exit wake penalty, core cycles (default 30)",
                     kCycles},
                    {"sr-idle",
                     "idle core cycles before self-refresh (default 200000)",
                     kCycles},
                    {"sr-exit",
                     "self-refresh wake penalty, core cycles (default 500)",
                     kCycles},
                },
                [](const MemBackendConfig& cfg, std::uint64_t freq_mhz) {
                    return std::make_unique<RefreshDramBackend>(cfg, freq_mhz);
                },
                &RefreshDramBackend::crossCheck,
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
