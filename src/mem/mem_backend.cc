#include "mem/mem_backend.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parse.h"

namespace ndpext {

Cycles
toCoreCycles(double dram_cycles, double dram_mhz, double core_mhz)
{
    const double c = dram_cycles * core_mhz / dram_mhz;
    const auto whole = static_cast<Cycles>(c);
    return whole + (static_cast<double>(whole) < c ? 1 : 0);
}

DramTimingParams
DramTimingParams::hbm3Unit()
{
    DramTimingParams p;
    p.name = "HBM3-unit";
    p.clockMhz = 1600.0;
    p.tRcd = p.tCas = p.tRp = 24;
    p.rowBytes = 2048;
    p.channels = 1;
    p.ranks = 1;
    p.banks = 8;
    // One unit owns 1/16 of a stack's bandwidth; HBM3 stack ~800 GB/s
    // -> ~50 GB/s per unit = 25 B per 2 GHz core cycle.
    p.busBytesPerCycle = 25.0;
    p.rdWrPjPerBit = 1.7;
    p.actPreNj = 0.6;
    return p;
}

DramTimingParams
DramTimingParams::hmc2Unit()
{
    DramTimingParams p;
    p.name = "HMC2-vault";
    p.clockMhz = 1250.0;
    p.tRcd = p.tCas = p.tRp = 14;
    p.rowBytes = 256; // HMC vaults use small rows
    p.channels = 1;
    p.ranks = 1;
    p.banks = 8;
    // 16 vaults x 10 GB/s = 160 GB/s per stack; 10 GB/s = 5 B/cycle.
    p.busBytesPerCycle = 5.0;
    p.rdWrPjPerBit = 1.7;
    p.actPreNj = 0.6;
    return p;
}

DramTimingParams
DramTimingParams::ddr5Extended()
{
    DramTimingParams p;
    p.name = "DDR5-4800-ext";
    p.clockMhz = 2400.0;
    p.tRcd = p.tCas = p.tRp = 40;
    p.rowBytes = 8192;
    p.channels = 4; // Table II: 4 channels x 2 ranks x 16 banks
    p.ranks = 2;
    p.banks = 16;
    // 4 channels x 38.4 GB/s = 153.6 GB/s = 76.8 B per core cycle.
    p.busBytesPerCycle = 76.8;
    p.rdWrPjPerBit = 3.2;
    p.actPreNj = 3.3;
    return p;
}

DramTimingParams
DramTimingParams::ddr5Host()
{
    DramTimingParams p = ddr5Extended();
    p.name = "DDR5-4800-host";
    return p;
}

DramTimingParams
DramTimingParams::lpddr5x()
{
    DramTimingParams p;
    p.name = "LPDDR5X-8533";
    // LPDDR5X-8533: slower core timing than DDR5 but far lower transfer
    // energy -- the low-power expander point for heterogeneous stacks.
    p.clockMhz = 1066.0;
    p.tRcd = 19;
    p.tCas = 17;
    p.tRp = 21;
    p.rowBytes = 2048;
    p.channels = 2;
    p.ranks = 1;
    p.banks = 16;
    // 2 x16 channels at 8533 MT/s ~ 34 GB/s = 17 B per core cycle.
    p.busBytesPerCycle = 17.0;
    p.rdWrPjPerBit = 1.2;
    p.actPreNj = 1.1;
    return p;
}

const std::vector<std::string>&
dramPresetNames()
{
    static const std::vector<std::string> names = {
        "ddr5-4800", "hbm3", "hmc2", "lpddr5x"};
    return names;
}

bool
dramPreset(const std::string& name, DramTimingParams* out)
{
    NDP_ASSERT(out != nullptr);
    if (name == "ddr5-4800") {
        *out = DramTimingParams::ddr5Extended();
        return true;
    }
    if (name == "hbm3") {
        *out = DramTimingParams::hbm3Unit();
        return true;
    }
    if (name == "hmc2") {
        *out = DramTimingParams::hmc2Unit();
        return true;
    }
    if (name == "lpddr5x") {
        *out = DramTimingParams::lpddr5x();
        return true;
    }
    return false;
}

double
MemBackendConfig::tunable(const std::string& key, double fallback) const
{
    for (const auto& [k, v] : tunables) {
        if (k == key) {
            double out = 0.0;
            const bool ok = parseReal(v, -kMaxReal, kMaxReal, &out);
            NDP_ASSERT(ok, "tunable ", key, "='", v, "' is not numeric");
            return out;
        }
    }
    return fallback;
}

void
MemBackendConfig::setTunable(const std::string& key, const std::string& value)
{
    for (auto& [k, v] : tunables) {
        if (k == key) {
            v = value;
            return;
        }
    }
    tunables.emplace_back(key, value);
    std::sort(tunables.begin(), tunables.end());
}

void
MemBackendConfig::hashInto(ckpt::Writer& w) const
{
    w.str(backend);
    w.str(timing.name);
    w.d(timing.clockMhz);
    w.u32(timing.tRcd);
    w.u32(timing.tCas);
    w.u32(timing.tRp);
    w.u64(timing.rowBytes);
    w.u32(timing.channels);
    w.u32(timing.ranks);
    w.u32(timing.banks);
    w.d(timing.busBytesPerCycle);
    w.d(timing.rdWrPjPerBit);
    w.d(timing.actPreNj);
    w.u64(tunables.size());
    for (const auto& [k, v] : tunables) {
        w.str(k);
        w.str(v);
    }
}

bool
MemBackendConfig::parseSpec(const std::string& spec, MemBackendConfig* out,
                            std::string* error)
{
    NDP_ASSERT(out != nullptr);
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = why;
        }
        return false;
    };
    if (spec.empty()) {
        return fail("empty backend spec");
    }

    MemBackendConfig cfg;
    const std::size_t comma = spec.find(',');
    cfg.backend = spec.substr(0, comma);
    if (cfg.backend.empty()) {
        return fail("backend spec '" + spec + "' has an empty name");
    }
    std::vector<std::pair<std::string, std::string>> pairs;
    std::string why;
    if (comma != std::string::npos
        && !splitKeyValues(std::string_view(spec).substr(comma + 1), &pairs,
                           &why)) {
        return fail("backend options: " + why);
    }
    for (const auto& [key, value] : pairs) {
        if (key == "preset") {
            if (!dramPreset(value, &cfg.timing)) {
                std::string known;
                for (const auto& n : dramPresetNames()) {
                    known += (known.empty() ? "" : ", ") + n;
                }
                return fail("unknown timing preset '" + value
                            + "' (known presets: " + known + ")");
            }
            cfg.timingSet = true;
            continue;
        }
        double v = 0.0;
        if (!parseReal(value, -kMaxReal, kMaxReal, &v)) {
            return fail("backend option '" + key + "=" + value
                        + "' must have a numeric value");
        }
        cfg.setTunable(key, value);
    }
    *out = cfg;
    return true;
}

MemBackend::MemBackend(const DramTimingParams& params,
                       std::uint64_t core_freq_mhz)
    : params_(params),
      rcdCycles_(toCoreCycles(params.tRcd, params.clockMhz,
                              static_cast<double>(core_freq_mhz))),
      casCycles_(toCoreCycles(params.tCas, params.clockMhz,
                              static_cast<double>(core_freq_mhz))),
      rpCycles_(toCoreCycles(params.tRp, params.clockMhz,
                             static_cast<double>(core_freq_mhz))),
      busBytesPerCycle_(params.busBytesPerCycle)
{
    NDP_ASSERT(params.totalBanks() > 0 && params.rowBytes > 0);
}

Cycles
MemBackend::burstCycles(std::uint32_t bytes) const
{
    const double c = static_cast<double>(bytes) / busBytesPerCycle_;
    const auto whole = static_cast<Cycles>(c);
    return std::max<Cycles>(
        1, whole + (static_cast<double>(whole) < c ? 1 : 0));
}

void
MemBackend::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("rowHits", [this] { return double(rowHits_); });
    add("rowMisses", [this] { return double(rowMisses_); });
    add("activations", [this] { return double(activations_); });
    add("bytesRead", [this] { return double(bytesRead_); });
    add("bytesWritten", [this] { return double(bytesWritten_); });
    add("dynamicEnergyNj", [this] { return dynamicEnergyNj(); });
}

void
MemBackend::checkpoint(ckpt::Archive& ar)
{
    ar.u64(rowHits_);
    ar.u64(rowMisses_);
    ar.u64(activations_);
    ar.u64(bytesRead_);
    ar.u64(bytesWritten_);
}

} // namespace ndpext
