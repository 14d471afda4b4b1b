#include "fault/fault_injector.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"

namespace ndpext {

namespace {

/** Parse "5M" / "200K" / "1G" / "12345" into a cycle count. */
bool
parseCycles(const std::string& text, Cycles* out)
{
    if (text.empty()) {
        return false;
    }
    std::uint64_t mult = 1;
    std::string digits = text;
    switch (std::toupper(static_cast<unsigned char>(text.back()))) {
      case 'K':
        mult = 1'000;
        digits.pop_back();
        break;
      case 'M':
        mult = 1'000'000;
        digits.pop_back();
        break;
      case 'G':
        mult = 1'000'000'000;
        digits.pop_back();
        break;
      default:
        break;
    }
    if (digits.empty()
        || digits.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    try {
        *out = std::stoull(digits) * mult;
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

bool
parseProb(const std::string& text, double* out)
{
    if (text.rfind("p=", 0) != 0) {
        return false;
    }
    try {
        std::size_t used = 0;
        const double p = std::stod(text.substr(2), &used);
        if (used != text.size() - 2 || p < 0.0 || p > 1.0) {
            return false;
        }
        *out = p;
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

bool
parseId(const std::string& text, std::uint32_t* out)
{
    if (text.empty()
        || text.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    try {
        const unsigned long v = std::stoul(text);
        *out = static_cast<std::uint32_t>(v);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

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
        std::uint32_t id = 0;
        Cycles when = 0;
        if (!parseId(arg.substr(0, at), &id)) {
            return fail(error, "fault spec '" + spec + "': bad " + kind
                                   + " id '" + arg.substr(0, at) + "'");
        }
        if (!parseCycles(arg.substr(at + 1), &when)) {
            return fail(error, "fault spec '" + spec + "': bad cycle '"
                                   + arg.substr(at + 1)
                                   + "' (want digits with optional"
                                     " K/M/G suffix)");
        }
        if (kind == "unit") {
            params.unitFailures.push_back(UnitFailure{id, when});
        } else {
            if (units_per_stack == 0) {
                return fail(error, "fault spec '" + spec
                                       + "': stack faults not supported"
                                         " here");
            }
            for (std::uint32_t u = 0; u < units_per_stack; ++u) {
                params.unitFailures.push_back(
                    UnitFailure{id * units_per_stack + u, when});
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
    if (!parseProb(arg, target)) {
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
