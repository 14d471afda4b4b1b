/**
 * @file
 * The abstract memory-backend interface and its per-role configuration.
 *
 * Every memory device in the simulated machine -- the DRAM-cache slice of
 * each NDP unit, the DDR5 behind the CXL expander, and host main memory --
 * is modelled by a MemBackend chosen by name at construction time from
 * the fixed backend table (see mem/mem_backend_registry.h, after
 * ramulator2's `impl/` set). The default backend ("banked", the
 * DramDevice in mem/dram.h) is bit-identical to the historical monolithic
 * model; alternative controllers (FR-FCFS / FCFS scheduling, refresh +
 * power-down awareness) plug in per role via
 * `--mem-backend.<unit|ext|host>=NAME[,key=val...]`.
 *
 * Contracts every backend must honor (DESIGN.md 4.3 "Memory backend
 * table"):
 *  - Determinism: access timing is a pure function of the request
 *    sequence; no wall clock, no unseeded randomness, so results are
 *    bit-identical across runs.
 *  - Checkpointing: one checkpoint() pass names all mutable state;
 *    the backend name is part of the system config hash, so resuming a
 *    checkpoint under a different backend is rejected up front.
 *  - Counters: one counters() override declares the backend's own
 *    counters after the base class's six; the same list feeds both
 *    --stats-json and the epoch time-series.
 */

#ifndef NDPEXT_MEM_MEM_BACKEND_H
#define NDPEXT_MEM_MEM_BACKEND_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"

namespace ndpext {

/** Timing/energy parameters of one DRAM technology. */
struct DramTimingParams
{
    std::string name;
    /** DRAM command clock, MHz. */
    double clockMhz = 1600.0;
    /** Row-to-column delay, CAS latency, precharge, in DRAM cycles. */
    std::uint32_t tRcd = 24;
    std::uint32_t tCas = 24;
    std::uint32_t tRp = 24;
    /** Row buffer size in bytes. */
    std::uint64_t rowBytes = 2048;
    /**
     * Device organization. Backends time channels x ranks x banks
     * independent banks behind one shared data bus (totalBanks()); the
     * split exists so presets document the real topology instead of a
     * pre-flattened bank count.
     */
    std::uint32_t channels = 1;
    std::uint32_t ranks = 1;
    /** Independently timed banks per rank. */
    std::uint32_t banks = 8;
    /** Data bus bandwidth of the whole device, bytes per core cycle. */
    double busBytesPerCycle = 16.0;
    /** Read/write dynamic energy, pJ per bit transferred. */
    double rdWrPjPerBit = 1.7;
    /** Activate+precharge energy, nJ per activation. */
    double actPreNj = 0.6;

    /** Flattened bank count actually timed by the backends. */
    std::uint32_t
    totalBanks() const
    {
        return channels * ranks * banks;
    }

    /** NDP-stack HBM3 slice owned by one NDP unit (Table II). */
    static DramTimingParams hbm3Unit();
    /** NDP-stack HMC2 vault owned by one NDP unit (Table II). */
    static DramTimingParams hmc2Unit();
    /** DDR5-4800 extended-memory device: 4 ch x 2 ranks x 16 banks. */
    static DramTimingParams ddr5Extended();
    /** Host-attached DDR5 main memory for the non-NDP baseline. */
    static DramTimingParams ddr5Host();
    /** LPDDR5X-class low-power expander device (Fig. 8(b) diversity). */
    static DramTimingParams lpddr5x();
};

/**
 * Named timing presets, constructible from the CLI (`preset=NAME`) and
 * the registry instead of the hard-coded statics above.
 */
const std::vector<std::string>& dramPresetNames();
bool dramPreset(const std::string& name, DramTimingParams* out);

/** Convert DRAM-clock cycles to core cycles, rounding up. */
Cycles toCoreCycles(double dram_cycles, double dram_mhz, double core_mhz);

/** Completion info of one DRAM access. */
struct DramResult
{
    /** Time the critical word is available at the device pins. */
    Cycles done = 0;
    /** True if the access hit the open row. */
    bool rowHit = false;
};

/**
 * One memory backend selection: registry name, resolved timing preset,
 * and backend-specific key=value tunables. Implicitly constructible from
 * a bare DramTimingParams (the default "banked" backend), so legacy call
 * sites that passed timing parameters keep working unchanged.
 */
struct MemBackendConfig
{
    /** Registry key (see mem/mem_backend_registry.h). */
    std::string backend = "banked";
    /** Resolved device timing (preset or role default). */
    DramTimingParams timing;
    /** True once `timing` holds a deliberate choice, not the
     *  default-constructed placeholder (roles fill defaults lazily). */
    bool timingSet = false;
    /** Backend-specific tunables, kept sorted by key (canonical order
     *  for hashing). Values are numeric strings. */
    std::vector<std::pair<std::string, std::string>> tunables;

    MemBackendConfig() = default;
    // NOLINTNEXTLINE(google-explicit-constructor): legacy timing-only
    // call sites (tests, HostParams) select the default backend.
    MemBackendConfig(const DramTimingParams& t) : timing(t), timingSet(true)
    {
    }
    MemBackendConfig(std::string backend_name, const DramTimingParams& t)
        : backend(std::move(backend_name)), timing(t), timingSet(true)
    {
    }

    /** Tunable lookup with a default (values are validated numeric). */
    double tunable(const std::string& key, double fallback) const;

    /** Set (or replace) one tunable, keeping the canonical sort order. */
    void setTunable(const std::string& key, const std::string& value);

    /**
     * Canonical encoding of the full backend identity (name, timing,
     * tunables) into a checkpoint-hash writer: a resumed image is only
     * valid under the exact backend that produced it.
     */
    void hashInto(ckpt::Writer& w) const;

    /**
     * Parse "NAME[,key=val...]" from the CLI. `preset=NAME` resolves the
     * timing preset immediately; every other key must be numeric and is
     * stored as a tunable (validated against the registry's declared
     * keys and ranges in SystemConfig::validate, not here). Returns
     * false with a diagnostic in `*error` on malformed input.
     */
    static bool parseSpec(const std::string& spec, MemBackendConfig* out,
                          std::string* error);
};

/**
 * A memory device: a set of banks behind one shared data bus. Concrete
 * backends implement accessRow(); the base class owns the row
 * interleave, the timing parameters (converted to core cycles once at
 * construction), the common traffic counters and the energy model, so
 * every backend reports the same baseline statistics under its extras.
 */
class MemBackend
{
  public:
    MemBackend(const DramTimingParams& params, std::uint64_t core_freq_mhz);
    virtual ~MemBackend() = default;

    MemBackend(const MemBackend&) = delete;
    MemBackend& operator=(const MemBackend&) = delete;

    /**
     * Issue an access. @param addr byte address within this device's
     * local address space; @param bytes transfer size; @param now request
     * time. Addresses map row-interleaved across banks: consecutive rows
     * go to different banks, maximizing bank-level parallelism for
     * streaming patterns.
     */
    DramResult
    access(Addr addr, std::uint32_t bytes, bool is_write, Cycles now)
    {
        const std::uint64_t row_linear = addr / params_.rowBytes;
        const std::uint32_t banks = params_.totalBanks();
        return accessRow(static_cast<std::uint32_t>(row_linear % banks),
                         row_linear / banks, bytes, is_write, now);
    }

    /**
     * Issue an access to an explicit (bank, row) pair: what every
     * backend implements. The stream cache calls it directly, since it
     * manages DRAM rows itself.
     */
    virtual DramResult accessRow(std::uint32_t bank, std::uint64_t row,
                                 std::uint32_t bytes, bool is_write,
                                 Cycles now) = 0;

    /** Row-hit access latency in core cycles (tCAS + first-word burst). */
    Cycles rowHitLatency() const { return casCycles_ + burstCycles(64); }
    /** Closed-row access latency (tRCD + tCAS + first-word burst). */
    Cycles
    rowClosedLatency() const
    {
        return rcdCycles_ + casCycles_ + burstCycles(64);
    }
    /** Row-conflict latency (tRP + tRCD + tCAS + first-word burst). */
    Cycles
    rowMissLatency() const
    {
        return rpCycles_ + rcdCycles_ + casCycles_ + burstCycles(64);
    }

    /** Cycles to stream `bytes` over the device data bus. */
    Cycles burstCycles(std::uint32_t bytes) const;

    const DramTimingParams& params() const { return params_; }

    /** Registry name this backend was created under ("" if built
     *  directly, e.g. a DramDevice constructed in a unit test). */
    const std::string& backendName() const { return backendName_; }
    void setBackendName(std::string name) { backendName_ = std::move(name); }

    /** Total dynamic energy so far, in nanojoules. */
    virtual double dynamicEnergyNj() const;

    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t activations() const { return activations_; }

    /**
     * Declare the traffic and energy counters under `prefix` (rowHits,
     * rowMisses, activations, bytesRead, bytesWritten,
     * dynamicEnergyNj). Overrides append their own after calling this.
     * Duplicate names sum across instances, so per-unit devices declared
     * under one prefix read as the machine-wide counter.
     */
    virtual void counters(Counters& out, const std::string& prefix) const;

    /**
     * Checkpoint pass (timing parameters are configuration). Every
     * backend overrides it and calls this base definition, which names
     * the common traffic counters, after its banks.
     */
    virtual void checkpoint(ckpt::Archive& ar) = 0;

  protected:
    DramTimingParams params_;
    Cycles rcdCycles_;
    Cycles casCycles_;
    Cycles rpCycles_;
    double busBytesPerCycle_;

    // Common traffic counters
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0; // conflict or closed
    std::uint64_t activations_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;

  private:
    std::string backendName_;
};

/**
 * Construct the backend selected by `cfg` (registry lookup by name).
 * Unknown names are a fatal error here -- CLI frontends validate first
 * (SystemConfig::validate) so users get a recoverable diagnostic with a
 * did-you-mean suggestion instead.
 */
std::unique_ptr<MemBackend> createMemBackend(const MemBackendConfig& cfg,
                                             std::uint64_t core_freq_mhz);

} // namespace ndpext

#endif // NDPEXT_MEM_MEM_BACKEND_H
