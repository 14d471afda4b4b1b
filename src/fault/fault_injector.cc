#include "fault/fault_injector.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/parse.h"

namespace ndpext {

namespace {

bool
fail(std::string* error, const std::string& msg)
{
    if (error != nullptr) {
        *error = msg;
    }
    return false;
}

} // namespace

bool
parseFaultSpec(const std::string& spec, std::uint32_t units_per_stack,
               FaultParams& params, std::string* error)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos || colon + 1 >= spec.size()) {
        return fail(error, "fault spec '" + spec
                               + "' has no ':<arg>' part");
    }
    const std::string kind = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);

    if (kind == "unit" || kind == "stack") {
        const auto at = arg.find('@');
        if (at == std::string::npos) {
            return fail(error, "fault spec '" + spec
                                   + "': expected " + kind
                                   + ":<id>@<cycle>");
        }
        // Unit ids are 32-bit, and so is a stack's last unit id.
        const std::uint64_t max_id = kind == "unit" || units_per_stack == 0
            ? std::numeric_limits<UnitId>::max()
            : (std::uint64_t{1} << 32) / units_per_stack - 1;
        std::uint64_t id = 0;
        Cycles when = 0;
        if (!parseCount(arg.substr(0, at), max_id, &id)) {
            return fail(error, "fault spec '" + spec + "': bad " + kind
                                   + " id '" + arg.substr(0, at)
                                   + "' (want an integer in [0, "
                                   + std::to_string(max_id) + "])");
        }
        if (!parseCycles(arg.substr(at + 1), &when)) {
            return fail(error, "fault spec '" + spec + "': bad cycle '"
                                   + arg.substr(at + 1)
                                   + "' (want digits with optional"
                                     " K/M/G suffix)");
        }
        const auto uid = static_cast<UnitId>(id);
        if (kind == "unit") {
            params.unitFailures.push_back(UnitFailure{uid, when});
        } else {
            if (units_per_stack == 0) {
                return fail(error, "fault spec '" + spec
                                       + "': stack faults not supported"
                                         " here");
            }
            for (std::uint32_t u = 0; u < units_per_stack; ++u) {
                params.unitFailures.push_back(
                    UnitFailure{uid * units_per_stack + u, when});
            }
        }
        return true;
    }

    double* target = nullptr;
    if (kind == "cxl-transient") {
        target = &params.cxlTransientProb;
    } else if (kind == "cxl-poison") {
        target = &params.cxlPoisonProb;
    } else if (kind == "dram-bit") {
        target = &params.dramBitProb;
    } else {
        return fail(error, "unknown fault kind '" + kind
                               + "' (want unit, stack, cxl-transient,"
                                 " cxl-poison, or dram-bit)");
    }
    if (arg.rfind("p=", 0) != 0
        || !parseReal(std::string_view(arg).substr(2), 0.0, 1.0, target)) {
        return fail(error, "fault spec '" + spec
                               + "': expected p=<prob in [0,1]>");
    }
    return true;
}

FaultInjector::FaultInjector(const FaultParams& params)
    : params_(params), linkRng_(mix64(params.seed ^ 0x11ec7)),
      poisonRng_(mix64(params.seed ^ 0x905071)),
      dramRng_(mix64(params.seed ^ 0xd7a3))
{
    std::stable_sort(params_.unitFailures.begin(),
                     params_.unitFailures.end(),
                     [](const UnitFailure& a, const UnitFailure& b) {
                         return a.at < b.at;
                     });
}

bool
FaultInjector::linkError()
{
    if (params_.cxlTransientProb <= 0.0) {
        return false;
    }
    if (!linkRng_.nextBool(params_.cxlTransientProb)) {
        return false;
    }
    ++linkErrors_;
    return true;
}

bool
FaultInjector::poisonRead(Addr addr)
{
    const Addr line = addr / kCachelineBytes;
    if (poisonedLines_.count(line) != 0) {
        return true;
    }
    if (params_.cxlPoisonProb <= 0.0
        || !poisonRng_.nextBool(params_.cxlPoisonProb)) {
        return false;
    }
    poisonedLines_.insert(line);
    ++linesPoisoned_;
    return true;
}

bool
FaultInjector::isPoisoned(Addr addr) const
{
    return poisonedLines_.count(addr / kCachelineBytes) != 0;
}

bool
FaultInjector::dramBitFault()
{
    if (params_.dramBitProb <= 0.0
        || !dramRng_.nextBool(params_.dramBitProb)) {
        return false;
    }
    ++dramFaults_;
    return true;
}

Cycles
FaultInjector::nextFailureAt() const
{
    return nextFailure_ < params_.unitFailures.size()
        ? params_.unitFailures[nextFailure_].at
        : kNoFailure;
}

std::vector<UnitId>
FaultInjector::popFailuresUpTo(Cycles now)
{
    std::vector<UnitId> fired;
    while (nextFailure_ < params_.unitFailures.size()
           && params_.unitFailures[nextFailure_].at <= now) {
        const UnitFailure& f = params_.unitFailures[nextFailure_++];
        if (failed_.insert(f.unit).second) {
            fired.push_back(f.unit);
            firstFailureAt_ = std::min(firstFailureAt_, f.at);
        }
    }
    return fired;
}

bool
FaultInjector::unitFailed(UnitId unit) const
{
    return failed_.count(unit) != 0;
}

void
FaultInjector::counters(Counters& out, const std::string& prefix) const
{
    const CounterScope add{out, prefix};
    add("linkErrorsInjected", [this] { return double(linkErrors_); });
    add("linesPoisoned", [this] { return double(linesPoisoned_); });
    add("dramBitFaultsInjected", [this] { return double(dramFaults_); });
    add("failedUnits", [this] { return double(failed_.size()); });
}

} // namespace ndpext
