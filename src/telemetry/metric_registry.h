/**
 * @file
 * Named-metric registry with epoch-resolved time-series sampling.
 *
 * The registry samples the same Counters list that --stats-json reads
 * (sim/stats.h): each entry is a name plus a closure that reads the live
 * value, and the registry never owns component state, so attaching it is
 * observer-only and cannot perturb simulation results. A name that
 * appears more than once *adds a source*: the sampled value is the sum
 * over all sources in list order, exactly as StatGroup::addAll sums the
 * same list, so the final sample equals the --stats-json value of every
 * name both carry.
 *
 * sample() renders every metric as one JSON object per line into the
 * registry's output stream:
 *
 *   {"epoch":0,"cycles":250000,"metrics":{"cache.hits":123, ...}}
 *
 * Values are cumulative (not per-epoch deltas); consumers diff adjacent
 * records (see tools/ndpext_report). Metric naming scheme:
 * "<component>.<counter>" with dot-separated hierarchy.
 */

#ifndef NDPEXT_TELEMETRY_METRIC_REGISTRY_H
#define NDPEXT_TELEMETRY_METRIC_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "sim/stats.h"

namespace ndpext {

class MetricRegistry
{
  public:
    /** Samples render into `os`, which must outlive the registry. */
    explicit MetricRegistry(std::ostream& os) : os_(os) {}

    /** Pull-mode source for a metric; must stay valid until the last
     *  sample(). Re-registering a name adds a source (values sum). */
    void registerCounter(const std::string& name,
                         std::function<double()> read);

    /** registerCounter() for every entry of the list, in order. */
    void registerCounters(const Counters& list);

    /** Register a live histogram; samples record its summary stats. */
    void registerHistogram(const std::string& name, const Histogram* hist);

    /** Render one line: every metric's value at an epoch barrier. */
    void sample(std::uint64_t epoch, Cycles cycles);

  private:
    struct Metric
    {
        std::string name;
        /** All registered sources; sampled value is their sum. */
        std::vector<std::function<double()>> sources;
    };
    struct HistEntry
    {
        std::string name;
        const Histogram* hist = nullptr;
    };

    std::ostream& os_;
    std::vector<Metric> metrics_;
    std::map<std::string, std::size_t> index_;
    std::vector<HistEntry> hists_;
    bool sampled_ = false;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_METRIC_REGISTRY_H
