#include "serving/serving_config.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/suggest.h"
#include "workloads/workload.h"

namespace ndpext {

namespace {

/** Split "a=1,b=2" into key/value pairs; empty value is an error. */
bool
splitPairs(const std::string& spec,
           std::vector<std::pair<std::string, std::string>>* out,
           std::string* error)
{
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty()) {
            continue;
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
            *error = "--tenant: expected key=value, got '" + item + "'";
            return false;
        }
        out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    if (out->empty()) {
        *error = "--tenant: empty spec";
        return false;
    }
    return true;
}

bool
parseNum(const std::string& key, const std::string& val, double* out,
         std::string* error)
{
    char* end = nullptr;
    const double v = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || !std::isfinite(v)) {
        *error = "--tenant: " + key + " expects a number, got '" + val
            + "'";
        return false;
    }
    *out = v;
    return true;
}

bool
parseUint(const std::string& key, const std::string& val,
          std::uint64_t* out, std::string* error)
{
    double v = 0.0;
    if (!parseNum(key, val, &v, error)) {
        return false;
    }
    if (v < 0.0 || v != std::floor(v)) {
        *error = "--tenant: " + key + " expects a non-negative integer, "
            + "got '" + val + "'";
        return false;
    }
    *out = static_cast<std::uint64_t>(v);
    return true;
}

} // namespace

bool
parseTenantSpec(const std::string& spec, TenantSpec* out,
                std::string* error)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    if (!splitPairs(spec, &pairs, error)) {
        return false;
    }
    for (const auto& [key, val] : pairs) {
        if (key == "name") {
            out->name = val;
        } else if (key == "workload") {
            out->workload = val;
        } else if (key == "arrival") {
            out->arrival = val;
        } else if (key == "qos") {
            if (val == "reserved") {
                out->reserved = true;
            } else if (val == "best-effort") {
                out->reserved = false;
            } else {
                *error = "--tenant: qos must be 'reserved' or "
                    "'best-effort', got '" + val + "'";
                return false;
            }
        } else if (key == "period") {
            if (!parseNum(key, val, &out->periodCycles, error)) {
                return false;
            }
        } else if (key == "reserve-pct") {
            if (!parseNum(key, val, &out->reservePct, error)) {
                return false;
            }
        } else if (key == "req") {
            std::uint64_t v = 0;
            if (!parseUint(key, val, &v, error)) {
                return false;
            }
            out->requestAccesses = static_cast<std::uint32_t>(v);
        } else if (key == "slo") {
            if (!parseUint(key, val, &out->sloCycles, error)) {
                return false;
            }
        } else if (key == "arrive") {
            if (!parseUint(key, val, &out->arriveEpoch, error)) {
                return false;
            }
        } else if (key == "depart") {
            if (!parseUint(key, val, &out->departEpoch, error)) {
                return false;
            }
        } else if (key == "footprint-mb") {
            std::uint64_t mb = 0;
            if (!parseUint(key, val, &mb, error)) {
                return false;
            }
            out->footprintBytes = mb * 1_MiB;
        } else {
            // Everything else must be an arrival-process tunable;
            // validateServingConfig checks the key against the table
            // once the arrival name is known.
            double v = 0.0;
            if (!parseNum(key, val, &v, error)) {
                return false;
            }
            out->arrivalTunables.emplace_back(key, v);
        }
    }
    if (out->workload.empty()) {
        *error = "--tenant: missing required key 'workload'";
        return false;
    }
    return true;
}

bool
validateServingConfig(const ServingConfig& cfg, std::string* error)
{
    const auto fail = [error](const std::string& why) {
        if (error != nullptr) {
            *error = why;
        }
        return false;
    };
    if (!cfg.enabled()) {
        return true;
    }
    if (cfg.tenants.size() > kMaxTenants) {
        return fail("--tenant: tenant count " +
                    std::to_string(cfg.tenants.size()) + " exceeds the "
                    "limit of " + std::to_string(kMaxTenants));
    }
    if (cfg.horizonCycles == 0) {
        return fail("--horizon: arrival horizon must be > 0 cycles");
    }
    double reservedPctSum = 0.0;
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantSpec& t = cfg.tenants[i];
        const std::string flag =
            "--tenant[" + std::to_string(i) + "]"
            + (t.name.empty() ? "" : " (" + t.name + ")");
        bool known = false;
        for (const std::string& w : allWorkloadNames()) {
            known = known || w == t.workload;
        }
        if (!known) {
            std::string why = flag + ": unknown workload '" + t.workload
                + "'";
            const std::string hint =
                closestName(t.workload, allWorkloadNames());
            if (!hint.empty()) {
                why += " (did you mean '" + hint + "'?)";
            }
            return fail(why);
        }
        const ArrivalInfo* info = arrivalProcesses().find(t.arrival);
        if (info == nullptr) {
            std::string why =
                flag + ": unknown arrival process '" + t.arrival + "'";
            const std::string hint = arrivalProcesses().suggest(t.arrival);
            if (!hint.empty()) {
                why += " (did you mean '" + hint + "'?)";
            }
            return fail(why);
        }
        for (const auto& [key, val] : t.arrivalTunables) {
            bool declared = false;
            for (const Tunable& tun : info->tunables) {
                declared = declared || tun.key == key;
            }
            if (!declared) {
                std::vector<std::string> keys;
                for (const Tunable& tun : info->tunables) {
                    keys.push_back(tun.key);
                }
                std::string why = flag + ": arrival '" + t.arrival
                    + "' has no tunable '" + key + "'";
                const std::string hint = closestName(key, keys);
                if (!hint.empty()) {
                    why += " (did you mean '" + hint + "'?)";
                }
                return fail(why);
            }
        }
        // Tenant names become metric-key segments ("tenant.<name>.p99"),
        // so the separator characters are off limits.
        for (const char c : t.name) {
            const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                || (c >= '0' && c <= '9') || c == '_' || c == '-';
            if (!ok) {
                return fail(flag + ": tenant names may only use letters, "
                            "digits, '_' and '-' (got '" + t.name + "')");
            }
        }
        if (!(t.periodCycles > 0.0)) {
            return fail(flag + ": arrival rate must be positive -- set "
                        "period=<mean inter-arrival cycles> > 0 (got "
                        + std::to_string(t.periodCycles) + ")");
        }
        if (t.requestAccesses == 0) {
            return fail(flag + ": req (accesses per request) must be "
                        ">= 1");
        }
        if (t.sloCycles == 0) {
            return fail(flag + ": slo must be > 0 cycles");
        }
        if (t.reservePct < 0.0 || t.reservePct > 100.0) {
            return fail(flag + ": reserve-pct must be in [0, 100]");
        }
        if (!t.reserved && t.reservePct > 0.0) {
            return fail(flag + ": reserve-pct requires qos=reserved");
        }
        if (t.arriveEpoch >= t.departEpoch) {
            return fail(flag + ": churn window is empty (arrive epoch "
                        + std::to_string(t.arriveEpoch)
                        + " >= depart epoch "
                        + std::to_string(t.departEpoch) + ")");
        }
        if (t.reserved) {
            reservedPctSum += t.reservePct;
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (!t.name.empty() && cfg.tenants[j].name == t.name) {
                return fail(flag + ": duplicate tenant name");
            }
        }
    }
    if (reservedPctSum > 90.0) {
        return fail("--tenant: reserved capacity carve-outs sum to "
                    + std::to_string(reservedPctSum)
                    + "% of each unit; at most 90% may be reserved");
    }
    return true;
}

void
hashServingConfig(const ServingConfig& cfg, ckpt::Writer& w)
{
    w.u64(cfg.tenants.size());
    w.u64(cfg.horizonCycles);
    for (const TenantSpec& t : cfg.tenants) {
        w.str(t.name);
        w.str(t.workload);
        w.str(t.arrival);
        w.d(t.periodCycles);
        w.u32(t.requestAccesses);
        w.b(t.reserved);
        w.d(t.reservePct);
        w.u64(t.sloCycles);
        w.u64(t.arriveEpoch);
        w.u64(t.departEpoch);
        w.u64(t.footprintBytes);
        w.u64(t.arrivalTunables.size());
        for (const auto& [key, val] : t.arrivalTunables) {
            w.str(key);
            w.d(val);
        }
    }
}

} // namespace ndpext
