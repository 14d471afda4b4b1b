#include "system/system_config.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "mem/mem_backend_registry.h"

namespace ndpext {

const NamedTable<PolicyInfo>&
policies()
{
    static const NamedTable<PolicyInfo> table{
        "policy",
        {
            {"ndpext", PolicyKind::NdpExt, false},
            {"ndpext-static", PolicyKind::NdpExtStatic, false},
            {"jigsaw", PolicyKind::Jigsaw, true},
            {"whirlpool", PolicyKind::Whirlpool, true},
            {"nexus", PolicyKind::Nexus, true},
            {"static-interleave", PolicyKind::StaticInterleave, true},
        },
    };
    return table;
}

namespace {

const PolicyInfo&
policyInfo(PolicyKind kind)
{
    for (const PolicyInfo& info : policies().rows()) {
        if (info.kind == kind) {
            return info;
        }
    }
    NDP_PANIC("bad policy kind");
}

} // namespace

std::string
policyName(PolicyKind kind)
{
    return policyInfo(kind).name;
}

PolicyKind
policyFromName(const std::string& name)
{
    const PolicyInfo* info = policies().find(name);
    if (info == nullptr) {
        NDP_FATAL("unknown policy: ", name);
    }
    return info->kind;
}

bool
isCachelinePolicy(PolicyKind kind)
{
    return policyInfo(kind).cachelineMode;
}

DramTimingParams
SystemConfig::unitDram() const
{
    return unitMemBackend().timing;
}

namespace {

/** Fill a role's timing default when the user picked none. */
MemBackendConfig
resolveRole(const MemBackendConfig& cfg, const DramTimingParams& fallback)
{
    MemBackendConfig out = cfg;
    if (!out.timingSet) {
        out.timing = fallback;
        out.timingSet = true;
    }
    return out;
}

} // namespace

MemBackendConfig
SystemConfig::unitMemBackend() const
{
    return resolveRole(memBackendUnit,
                       memType == NdpMemType::Hbm3
                           ? DramTimingParams::hbm3Unit()
                           : DramTimingParams::hmc2Unit());
}

MemBackendConfig
SystemConfig::extMemBackend() const
{
    return resolveRole(memBackendExt, DramTimingParams::ddr5Extended());
}

MemBackendConfig
SystemConfig::hostMemBackend() const
{
    return resolveRole(memBackendHost, DramTimingParams::ddr5Host());
}

bool
SystemConfig::validate(std::string* error) const
{
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = why;
        }
        return false;
    };
    // In a double, the product of four 32-bit sides cannot wrap.
    const double units =
        static_cast<double>(stacksX) * stacksY * unitsX * unitsY;
    if (units == 0 || units > std::numeric_limits<UnitId>::max()) {
        return fail(std::string("system geometry has ")
                    + (units == 0 ? "zero units"
                                  : "more units than a 32-bit unit id holds")
                    + " (stacks " + std::to_string(stacksX) + "x"
                    + std::to_string(stacksY) + ", units "
                    + std::to_string(unitsX) + "x"
                    + std::to_string(unitsY) + ")");
    }
    const DramTimingParams dram = unitDram();
    if (unitCacheBytes < dram.rowBytes * 4) {
        return fail("unit cache of " + std::to_string(unitCacheBytes)
                    + " bytes cannot hold 4 DRAM rows ("
                    + std::to_string(dram.rowBytes * 4) + " bytes)");
    }
    if (runtime.epochCycles == 0) {
        return fail("epoch length must be nonzero");
    }
    const auto& backends = memBackends();
    for (const auto& [role, roleCfg] :
         {std::pair<const char*, MemBackendConfig>{"unit", unitMemBackend()},
          {"ext", extMemBackend()},
          {"host", hostMemBackend()}}) {
        const std::string what = "memory backend '" + roleCfg.backend
            + "' for role '" + role + "'";
        const MemBackendInfo* info = backends.find(roleCfg.backend);
        if (info == nullptr) {
            std::string why = "unknown " + what;
            const std::string hint = backends.suggest(roleCfg.backend);
            if (!hint.empty()) {
                why += " (did you mean '" + hint + "'?)";
            } else {
                std::string known;
                for (const auto& n : backends.names()) {
                    known += (known.empty() ? "" : ", ") + n;
                }
                why += " (registered backends: " + known + ")";
            }
            return fail(why);
        }
        std::string why;
        if (!checkTunables(info->tunables, roleCfg.tunables, what,
                           "--list-mem-backends", &why)) {
            return fail(why);
        }
        if (info->crossCheck != nullptr) {
            why = info->crossCheck(roleCfg, coreFreqMhz);
            if (!why.empty()) {
                return fail(what + ": " + why);
            }
        }
    }
    for (const auto& f : faults.unitFailures) {
        if (f.unit >= numUnits()) {
            return fail("--fault=unit:" + std::to_string(f.unit)
                        + " names a nonexistent unit (system has "
                        + std::to_string(numUnits()) + " units, ids 0-"
                        + std::to_string(numUnits() - 1) + ")");
        }
    }
    if (serving.enabled()) {
        std::string why;
        if (!validateServingConfig(serving, &why)) {
            return fail(why);
        }
    }
    return true;
}

void
SystemConfig::finalize()
{
    NDP_ASSERT(numUnits() > 0);
    const DramTimingParams dram = unitDram();
    NDP_ASSERT(unitCacheBytes >= dram.rowBytes * 4,
               "unit cache must hold at least 4 DRAM rows");

    // Affine space restriction: the paper's 16 MB cap exists to bound
    // the affine tag array to 16k SRAM entries -- an *absolute* hardware
    // budget, not a fraction of the DRAM cache. At scaled capacities the
    // restriction therefore only binds when the unit cache exceeds what
    // 16k tags can cover (Fig. 9c sweeps it explicitly).
    if (cache.affineCapBytesPerUnit == 16_MiB) {
        cache.affineCapBytesPerUnit = std::min<std::uint64_t>(
            16_MiB,
            std::max<std::uint64_t>(unitCacheBytes / 4,
                                    dram.rowBytes * 4));
    }

    // Sampler capacity range spans one unit's DRAM cache, geometric, as
    // in Section V-A (32 kB..256 MB at paper scale).
    cache.sampler.maxCapacityBytes = unitCacheBytes;
    cache.sampler.minCapacityBytes =
        std::max<std::uint64_t>(1024, unitCacheBytes / 8192);
}

SystemConfig
SystemConfig::scaledDefault()
{
    SystemConfig cfg;
    // Scaled runs complete in a few million cycles; epochs scale with
    // them (paper: 50M-cycle epochs over billions of cycles).
    cfg.runtime.epochCycles = 500'000;
    cfg.runtime.partialUntilCycles = 2'000'000;
    cfg.finalize();
    return cfg;
}

SystemConfig
SystemConfig::paperScale()
{
    SystemConfig cfg;
    cfg.unitsX = 4;
    cfg.unitsY = 4;
    cfg.unitCacheBytes = 256_MiB;
    cfg.cache.affineCapBytesPerUnit = 16_MiB;
    cfg.runtime.epochCycles = 50'000'000;
    cfg.runtime.partialUntilCycles = 200'000'000;
    cfg.finalize();
    return cfg;
}

} // namespace ndpext
