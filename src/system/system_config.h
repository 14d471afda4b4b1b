/**
 * @file
 * Top-level system configuration (Table II) and the policy selector.
 *
 * Two presets:
 *  - scaledDefault(): the simulation-friendly configuration used by tests
 *    and benches -- same geometry, latencies and bandwidth ratios as
 *    Table II, with DRAM-cache capacity and workload footprints scaled
 *    down together (see DESIGN.md section 1).
 *  - paperScale(): the full Table II configuration (16 GB of NDP DRAM,
 *    256 MB per unit), constructible for spot experiments.
 */

#ifndef NDPEXT_SYSTEM_SYSTEM_CONFIG_H
#define NDPEXT_SYSTEM_SYSTEM_CONFIG_H

#include <cstdint>
#include <string>

#include "common/named_table.h"
#include "cpu/core.h"
#include "cxl/extended_memory.h"
#include "fault/fault_injector.h"
#include "mem/dram.h"
#include "ndp/stream_cache.h"
#include "noc/noc_model.h"
#include "runtime/ndp_runtime.h"
#include "serving/serving_config.h"

namespace ndpext {

/** Cache management scheme under test (Fig. 5 legend). */
enum class PolicyKind
{
    NdpExt,
    NdpExtStatic,
    Jigsaw,
    Whirlpool,
    Nexus,
    StaticInterleave,
};

/** One policy: its CLI name, its kind and its caching mode. */
struct PolicyInfo
{
    std::string name;
    PolicyKind kind;
    /** Caches 64 B lines behind a metadata cache: the adapted-NUCA
     *  baselines (StreamCacheParams::cachelineMode). */
    bool cachelineMode;
};

/** The six policies, sorted by name; the functions below read it. */
const NamedTable<PolicyInfo>& policies();

std::string policyName(PolicyKind kind);
PolicyKind policyFromName(const std::string& name);

/** True for the cacheline-grained adapted-NUCA baselines. */
bool isCachelinePolicy(PolicyKind kind);

/** NDP memory technology (Table II: HBM3 or HMC2). */
enum class NdpMemType
{
    Hbm3,
    Hmc2,
};

struct SystemConfig
{
    // Geometry: stacks in a mesh, units per stack in a mesh.
    std::uint32_t stacksX = 4;
    std::uint32_t stacksY = 2;
    std::uint32_t unitsX = 2;
    std::uint32_t unitsY = 4;

    std::uint64_t coreFreqMhz = 2000;
    CoreParams core;
    NdpMemType memType = NdpMemType::Hbm3;

    /** DRAM-cache capacity per NDP unit. */
    std::uint64_t unitCacheBytes = 1_MiB;

    StreamCacheParams cache;
    NocParams noc;
    CxlParams cxl;
    RuntimeParams runtime;

    /** Ablation switch for Algorithm 1's replication (bench_ablation). */
    bool allowReplication = true;

    /**
     * Fault-injection configuration (bench_fault_degradation, --fault).
     * Empty (the default) runs fault-free with zero simulation overhead.
     */
    FaultParams faults;

    /**
     * Multi-tenant serving frontend (--tenant/--horizon; src/serving).
     * Empty (the default) runs the classic closed-loop workloads.
     */
    ServingConfig serving;

    /** Static power: NDP unit (core + logic + SRAM) and ext memory. */
    double staticWattsPerUnit = 0.05;
    double staticWattsExt = 2.0;

    /**
     * Memory backend selection per role (see mem/mem_backend_registry.h
     * and `--mem-backend.<role>=NAME[,key=val...]`). Timing left unset
     * resolves to the role default: the memType device for NDP units,
     * DDR5-4800 for extended memory, DDR5 host channels for the host
     * baseline.
     */
    MemBackendConfig memBackendUnit;
    MemBackendConfig memBackendExt;
    MemBackendConfig memBackendHost;

    std::uint32_t
    numUnits() const
    {
        return stacksX * stacksY * unitsX * unitsY;
    }

    DramTimingParams unitDram() const;

    /** Role selections with timing defaults filled in. */
    MemBackendConfig unitMemBackend() const;
    MemBackendConfig extMemBackend() const;
    MemBackendConfig hostMemBackend() const;

    /**
     * Check user-facing constraints, returning false with a diagnostic
     * in `*error` instead of aborting: CLI frontends call this on
     * flag-derived configs so a typo exits with a clear message
     * (finalize() keeps the same conditions as asserts for library
     * callers that skip validation).
     */
    bool validate(std::string* error) const;

    /** Derive dependent fields (affine cap, sampler range) and validate. */
    void finalize();

    static SystemConfig scaledDefault();
    static SystemConfig paperScale();
};

} // namespace ndpext

#endif // NDPEXT_SYSTEM_SYSTEM_CONFIG_H
