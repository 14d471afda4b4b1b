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
 * sample() snapshots every metric into a fixed-capacity ring buffer of
 * EpochSample records (oldest epochs are dropped once full, counted in
 * droppedSamples()); writeJsonl() flushes the buffered series as one JSON
 * object per line:
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
#include <deque>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"

namespace ndpext {

/** One sampled point-in-time snapshot of every registered metric. */
struct EpochSample
{
    std::uint64_t epoch = 0;
    Cycles cycles = 0;
    /** Values in registration order (summed over duplicate sources). */
    std::vector<double> values;
    /** count/mean/p50/p99/max per registered histogram, in order. */
    struct HistSnapshot
    {
        std::uint64_t count = 0;
        double mean = 0.0;
        double p50 = 0.0;
        double p99 = 0.0;
        double max = 0.0;
    };
    std::vector<HistSnapshot> hists;
};

class MetricRegistry
{
  public:
    /** @param ring_capacity epochs retained before dropping the oldest. */
    explicit MetricRegistry(std::size_t ring_capacity = 4096);

    /** Pull-mode source for a metric; must stay valid until the last
     *  sample(). Re-registering a name adds a source (values sum). */
    void registerCounter(const std::string& name,
                         std::function<double()> read);

    /** registerCounter() for every entry of the list, in order. */
    void registerCounters(const Counters& list);

    /** Register a live histogram; snapshots record its summary stats. */
    void registerHistogram(const std::string& name, const Histogram* hist);

    /** Snapshot every metric at an epoch barrier. */
    void sample(std::uint64_t epoch, Cycles cycles);

    std::size_t numMetrics() const { return metrics_.size(); }
    std::size_t numSamples() const { return ring_.size(); }
    std::uint64_t droppedSamples() const { return dropped_; }
    const std::deque<EpochSample>& samples() const { return ring_; }

    /** Name of metric `i` (registration order, deduplicated). */
    const std::string& metricName(std::size_t i) const
    {
        return metrics_[i].name;
    }

    /** Latest sampled value of a metric by name (0 if never sampled). */
    double latest(const std::string& name) const;

    /** Flush the buffered epoch series as JSONL (one object per epoch). */
    void writeJsonl(std::ostream& os) const;

    /**
     * writeJsonl + clear: the samples move to `os` (a .part side file)
     * and only the flushed-count cursor stays in memory, keeping
     * checkpoint images flat across epochs.
     */
    void flushJsonl(std::ostream& os);

    /** Samples already moved out via flushJsonl(). */
    std::uint64_t flushedSamples() const { return flushedSamples_; }

    /**
     * Checkpoint pass: the sampled ring, drop counter and flush cursor
     * travel; metric/histogram registrations are re-made by the
     * components of the restoring process before a load runs.
     */
    void checkpoint(ckpt::Archive& ar);

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

    void writeSampleLine(std::ostream& os, const EpochSample& s) const;

    std::vector<Metric> metrics_;
    std::map<std::string, std::size_t> index_;
    std::vector<HistEntry> hists_;
    std::deque<EpochSample> ring_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::uint64_t flushedSamples_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_TELEMETRY_METRIC_REGISTRY_H
