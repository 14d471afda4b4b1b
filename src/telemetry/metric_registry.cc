#include "telemetry/metric_registry.h"

#include "common/logging.h"
#include "telemetry/json_out.h"

namespace ndpext {

MetricRegistry::MetricRegistry(std::size_t ring_capacity)
    : capacity_(ring_capacity)
{
    NDP_ASSERT(ring_capacity > 0);
}

void
MetricRegistry::registerCounter(const std::string& name,
                                std::function<double()> read)
{
    NDP_ASSERT(read != nullptr, "metric ", name, " has no reader");
    NDP_ASSERT(ring_.empty(),
               "metric ", name, " registered after the first sample()");
    const auto it = index_.find(name);
    if (it != index_.end()) {
        metrics_[it->second].sources.push_back(std::move(read));
        return;
    }
    index_.emplace(name, metrics_.size());
    Metric m;
    m.name = name;
    m.sources.push_back(std::move(read));
    metrics_.push_back(std::move(m));
}

void
MetricRegistry::registerCounters(const Counters& list)
{
    for (const Counter& c : list) {
        registerCounter(c.name, c.read);
    }
}

void
MetricRegistry::registerHistogram(const std::string& name,
                                  const Histogram* hist)
{
    NDP_ASSERT(hist != nullptr, "histogram ", name, " is null");
    hists_.push_back({name, hist});
}

void
MetricRegistry::sample(std::uint64_t epoch, Cycles cycles)
{
    EpochSample s;
    s.epoch = epoch;
    s.cycles = cycles;
    s.values.reserve(metrics_.size());
    for (const Metric& m : metrics_) {
        double v = 0.0;
        for (const auto& src : m.sources) {
            v += src();
        }
        s.values.push_back(v);
    }
    s.hists.reserve(hists_.size());
    for (const HistEntry& h : hists_) {
        EpochSample::HistSnapshot snap;
        snap.count = h.hist->count();
        snap.mean = h.hist->mean();
        snap.p50 = h.hist->percentile(0.5);
        snap.p99 = h.hist->percentile(0.99);
        snap.max = h.hist->maxValue();
        s.hists.push_back(snap);
    }
    if (ring_.size() == capacity_) {
        ring_.pop_front();
        ++dropped_;
    }
    ring_.push_back(std::move(s));
}

double
MetricRegistry::latest(const std::string& name) const
{
    const auto it = index_.find(name);
    if (it == index_.end() || ring_.empty()) {
        return 0.0;
    }
    return ring_.back().values[it->second];
}

void
MetricRegistry::writeSampleLine(std::ostream& os, const EpochSample& s) const
{
    os << "{\"epoch\":" << s.epoch << ",\"cycles\":" << s.cycles
       << ",\"metrics\":{";
    bool first = true;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << jsonout::str(metrics_[i].name) << ":"
           << jsonout::num(s.values[i]);
    }
    os << "}";
    if (!s.hists.empty()) {
        os << ",\"histograms\":{";
        for (std::size_t i = 0; i < hists_.size(); ++i) {
            if (i > 0) {
                os << ",";
            }
            const auto& h = s.hists[i];
            os << jsonout::str(hists_[i].name) << ":{\"count\":" << h.count
               << ",\"mean\":" << jsonout::num(h.mean)
               << ",\"p50\":" << jsonout::num(h.p50)
               << ",\"p99\":" << jsonout::num(h.p99)
               << ",\"max\":" << jsonout::num(h.max) << "}";
        }
        os << "}";
    }
    os << "}\n";
}

void
MetricRegistry::writeJsonl(std::ostream& os) const
{
    for (const EpochSample& s : ring_) {
        writeSampleLine(os, s);
    }
}

void
MetricRegistry::flushJsonl(std::ostream& os)
{
    writeJsonl(os);
    flushedSamples_ += ring_.size();
    ring_.clear();
}

void
MetricRegistry::checkpoint(ckpt::Archive& ar)
{
    ar.seq(ring_, [&](EpochSample& s) {
        ar.u64(s.epoch);
        ar.u64(s.cycles);
        ar.seq(s.values, [&](double& v) { ar.d(v); });
        ar.seq(s.hists, [&](EpochSample::HistSnapshot& h) {
            ar.u64(h.count);
            ar.d(h.mean);
            ar.d(h.p50);
            ar.d(h.p99);
            ar.d(h.max);
        });
    });
    ar.u64(dropped_);
    ar.u64(flushedSamples_);
}

} // namespace ndpext
