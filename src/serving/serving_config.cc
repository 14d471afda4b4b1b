#include "serving/serving_config.h"

#include <limits>

#include "common/parse.h"
#include "common/suggest.h"
#include "workloads/workload.h"

namespace ndpext {

bool
parseTenantSpec(const std::string& spec, TenantSpec* out,
                std::string* error)
{
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::pair<std::string, std::string>> pairs;
    std::string bad;
    if (!splitKeyValues(spec, &pairs, &bad)) {
        *error = "--tenant: expected key=value, got '" + bad + "'";
        return false;
    }
    if (pairs.empty()) {
        *error = "--tenant: empty spec";
        return false;
    }
    for (const auto& [key, val] : pairs) {
        // Integer keys take the count grammar, bounded by their field.
        bool integer = true;
        bool ok = true;
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
        } else if (key == "req") {
            ok = parseCount(val, &out->requestAccesses);
        } else if (key == "slo") {
            ok = parseCount(val, &out->sloCycles);
        } else if (key == "arrive") {
            ok = parseCount(val, &out->arriveEpoch);
        } else if (key == "depart") {
            ok = parseCount(val, &out->departEpoch);
        } else if (key == "footprint-mb") {
            std::uint64_t mb = 0;
            ok = parseCount(val, kMax / 1_MiB, &mb);
            out->footprintBytes = mb * 1_MiB;
        } else if (key == "period") {
            integer = false;
            ok = parseReal(val, -kMaxReal, kMaxReal, &out->periodCycles);
        } else if (key == "reserve-pct") {
            integer = false;
            ok = parseReal(val, -kMaxReal, kMaxReal, &out->reservePct);
        } else {
            // Everything else must be an arrival-process tunable;
            // validateServingConfig checks the key and its range against
            // the table once the arrival name is known.
            integer = false;
            double v = 0.0;
            ok = parseReal(val, -kMaxReal, kMaxReal, &v);
            out->arrivalTunables.emplace_back(key, v);
        }
        if (!ok) {
            *error = "--tenant: " + key + " expects "
                + (integer ? "an integer that fits its field" : "a number")
                + ", got '" + val + "'";
            return false;
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
        std::string why;
        if (!checkTunables(info->tunables, t.arrivalTunables,
                           flag + ": arrival '" + t.arrival + "'",
                           "--list-arrivals", &why)) {
            return fail(why);
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
