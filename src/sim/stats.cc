#include "sim/stats.h"

#include <cstdio>

namespace ndpext {

namespace {

/** A double as lossless text (%.17g round-trips every value). */
void
writeValue(std::ostream& os, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    os << buf;
}

} // namespace

void
StatGroup::add(const std::string& name, double delta)
{
    stats_[name] += delta;
}

void
StatGroup::addAll(const Counters& list)
{
    for (const Counter& c : list) {
        stats_[c.name] += c.read();
    }
}

void
StatGroup::set(const std::string& name, double value)
{
    stats_[name] = value;
}

double
StatGroup::get(const std::string& name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0.0 : it->second;
}

bool
StatGroup::has(const std::string& name) const
{
    return stats_.count(name) != 0;
}

void
StatGroup::dump(std::ostream& os) const
{
    for (const auto& [name, value] : stats_) {
        os << name << " ";
        writeValue(os, value);
        os << "\n";
    }
}

void
StatGroup::dumpJson(std::ostream& os) const
{
    os << "{";
    bool first = true;
    for (const auto& [name, value] : stats_) {
        if (!first) {
            os << ",";
        }
        first = false;
        // Stat names are ASCII identifiers with dots; escape defensively.
        os << "\n  \"";
        for (const char c : name) {
            if (c == '"' || c == '\\') {
                os << '\\';
            }
            os << c;
        }
        os << "\": ";
        writeValue(os, value);
    }
    os << (first ? "}" : "\n}");
}

} // namespace ndpext
