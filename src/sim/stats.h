/**
 * @file
 * Counter declarations and the flat statistics map.
 *
 * Every component declares each of its counters exactly once, as a
 * (full name, reader) pair appended to a Counters list by its
 * `counters(out, prefix)` method. Both outputs read the same list:
 * telemetry samples it at every epoch barrier
 * (MetricRegistry::registerCounters) and --stats-json takes its final
 * values (StatGroup::addAll). Duplicate names sum in list order, which
 * is how per-core and per-unit instances report one machine-wide
 * counter.
 */

#ifndef NDPEXT_SIM_STATS_H
#define NDPEXT_SIM_STATS_H

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ndpext {

/** One declared counter: its full dotted name and a live reader. */
struct Counter
{
    std::string name;
    std::function<double()> read;
};

using Counters = std::vector<Counter>;

/**
 * Declares counters under one name prefix:
 *
 *   const CounterScope add{out, prefix};
 *   add("hits", [this] { return double(hits_); }); // "<prefix>.hits"
 */
struct CounterScope
{
    Counters& out;
    std::string prefix;

    void
    operator()(const std::string& name, std::function<double()> read) const
    {
        out.push_back({prefix + "." + name, std::move(read)});
    }
};

/** A flat, ordered map of fully-qualified stat name -> value. */
class StatGroup
{
  public:
    /** Add `delta` to the named stat (creating it at 0). */
    void add(const std::string& name, double delta);

    /** Add every counter's current value (duplicate names sum). */
    void addAll(const Counters& list);

    /** Set the named stat to an absolute value. */
    void set(const std::string& name, double value);

    /** Read a stat; returns 0 for unknown names. */
    double get(const std::string& name) const;

    /** True if the stat exists. */
    bool has(const std::string& name) const;

    /** Dump "name value" lines in name order (%.17g, lossless). */
    void dump(std::ostream& os) const;

    /** Dump the group as one flat JSON object, keys in name order. */
    void dumpJson(std::ostream& os) const;

    const std::map<std::string, double>& raw() const { return stats_; }

  private:
    std::map<std::string, double> stats_;
};

} // namespace ndpext

#endif // NDPEXT_SIM_STATS_H
