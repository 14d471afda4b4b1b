#include "telemetry/metric_registry.h"

#include "common/logging.h"
#include "telemetry/json_out.h"

namespace ndpext {

void
MetricRegistry::registerCounter(const std::string& name,
                                std::function<double()> read)
{
    NDP_ASSERT(read != nullptr, "metric ", name, " has no reader");
    NDP_ASSERT(!sampled_,
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
    sampled_ = true;
    os_ << "{\"epoch\":" << epoch << ",\"cycles\":" << cycles
        << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        double v = 0.0;
        for (const auto& src : metrics_[i].sources) {
            v += src();
        }
        if (i > 0) {
            os_ << ",";
        }
        os_ << jsonout::str(metrics_[i].name) << ":" << jsonout::num(v);
    }
    os_ << "}";
    if (!hists_.empty()) {
        os_ << ",\"histograms\":{";
        for (std::size_t i = 0; i < hists_.size(); ++i) {
            if (i > 0) {
                os_ << ",";
            }
            const Histogram& h = *hists_[i].hist;
            os_ << jsonout::str(hists_[i].name)
                << ":{\"count\":" << h.count()
                << ",\"mean\":" << jsonout::num(h.mean())
                << ",\"p50\":" << jsonout::num(h.percentile(0.5))
                << ",\"p99\":" << jsonout::num(h.percentile(0.99))
                << ",\"max\":" << jsonout::num(h.maxValue()) << "}";
        }
        os_ << "}";
    }
    os_ << "}\n";
}

} // namespace ndpext
