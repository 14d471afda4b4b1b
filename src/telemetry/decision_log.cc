#include "telemetry/decision_log.h"

#include "telemetry/json_out.h"

namespace ndpext {

namespace {

template <typename T>
void
writeNumArray(std::ostream& os, const std::vector<T>& v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) {
            os << ",";
        }
        os << jsonout::num(static_cast<double>(v[i]));
    }
    os << "]";
}

} // namespace

void
DecisionLog::add(const DecisionRecord& r)
{
    os_ << "{\"kind\":" << jsonout::str(r.kind)
        << ",\"epoch\":" << r.epoch << ",\"cycles\":" << r.cycles
        << ",\"applied\":" << (r.applied ? "true" : "false")
        << ",\"iterations\":" << r.iterations
        << ",\"extends\":" << r.extends << ",\"merges\":" << r.merges;

    os_ << ",\"demands\":[";
    for (std::size_t i = 0; i < r.demands.size(); ++i) {
        const auto& d = r.demands[i];
        if (i > 0) {
            os_ << ",";
        }
        os_ << "{\"sid\":" << d.sid
            << ",\"footprintBytes\":" << d.footprintBytes
            << ",\"granuleBytes\":" << d.granuleBytes
            << ",\"readOnly\":" << (d.readOnly ? "true" : "false")
            << ",\"affine\":" << (d.affine ? "true" : "false")
            << ",\"accUnits\":";
        writeNumArray(os_, d.accUnits);
        os_ << ",\"accCounts\":";
        writeNumArray(os_, d.accCounts);
        os_ << ",\"curve\":{\"capacities\":";
        writeNumArray(os_, d.curveCapacities);
        os_ << ",\"misses\":";
        writeNumArray(os_, d.curveMisses);
        os_ << "}}";
    }
    os_ << "]";

    os_ << ",\"samplerAssignment\":[";
    for (std::size_t u = 0; u < r.samplerAssignment.size(); ++u) {
        if (u > 0) {
            os_ << ",";
        }
        writeNumArray(os_, r.samplerAssignment[u]);
    }
    os_ << "],\"uncovered\":";
    writeNumArray(os_, r.uncoveredStreams);

    os_ << ",\"allocs\":[";
    for (std::size_t i = 0; i < r.allocs.size(); ++i) {
        const auto& a = r.allocs[i];
        if (i > 0) {
            os_ << ",";
        }
        os_ << "{\"sid\":" << a.sid << ",\"numGroups\":" << a.numGroups
            << ",\"shareRows\":";
        writeNumArray(os_, a.shareRows);
        os_ << "}";
    }
    os_ << "]}\n";
}

} // namespace ndpext
