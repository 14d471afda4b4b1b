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
DecisionLog::writeJsonl(std::ostream& os) const
{
    for (const DecisionRecord& r : records_) {
        writeRecordLine(os, r);
    }
}

void
DecisionLog::flushJsonl(std::ostream& os)
{
    writeJsonl(os);
    flushedRecords_ += records_.size();
    records_.clear();
}

void
DecisionLog::writeRecordLine(std::ostream& os, const DecisionRecord& r) const
{
    os << "{\"kind\":" << jsonout::str(r.kind)
       << ",\"epoch\":" << r.epoch << ",\"cycles\":" << r.cycles
       << ",\"applied\":" << (r.applied ? "true" : "false")
       << ",\"iterations\":" << r.iterations
       << ",\"extends\":" << r.extends << ",\"merges\":" << r.merges;

    os << ",\"demands\":[";
    for (std::size_t i = 0; i < r.demands.size(); ++i) {
        const auto& d = r.demands[i];
        if (i > 0) {
            os << ",";
        }
        os << "{\"sid\":" << d.sid
           << ",\"footprintBytes\":" << d.footprintBytes
           << ",\"granuleBytes\":" << d.granuleBytes
           << ",\"readOnly\":" << (d.readOnly ? "true" : "false")
           << ",\"affine\":" << (d.affine ? "true" : "false")
           << ",\"accUnits\":";
        writeNumArray(os, d.accUnits);
        os << ",\"accCounts\":";
        writeNumArray(os, d.accCounts);
        os << ",\"curve\":{\"capacities\":";
        writeNumArray(os, d.curveCapacities);
        os << ",\"misses\":";
        writeNumArray(os, d.curveMisses);
        os << "}}";
    }
    os << "]";

    os << ",\"samplerAssignment\":[";
    for (std::size_t u = 0; u < r.samplerAssignment.size(); ++u) {
        if (u > 0) {
            os << ",";
        }
        writeNumArray(os, r.samplerAssignment[u]);
    }
    os << "],\"uncovered\":";
    writeNumArray(os, r.uncoveredStreams);

    os << ",\"allocs\":[";
    for (std::size_t i = 0; i < r.allocs.size(); ++i) {
        const auto& a = r.allocs[i];
        if (i > 0) {
            os << ",";
        }
        os << "{\"sid\":" << a.sid << ",\"numGroups\":" << a.numGroups
           << ",\"shareRows\":";
        writeNumArray(os, a.shareRows);
        os << "}";
    }
    os << "]}\n";
}

void
DecisionLog::checkpoint(ckpt::Archive& ar)
{
    ar.seq(records_, [&](DecisionRecord& rec) {
        ar.str(rec.kind);
        ar.u64(rec.epoch);
        ar.u64(rec.cycles);
        ar.seq(rec.demands, [&](DecisionRecord::Demand& d) {
            ar.u32(d.sid);
            ar.u64(d.footprintBytes);
            ar.u32(d.granuleBytes);
            ar.b(d.readOnly);
            ar.b(d.affine);
            ar.seq(d.accUnits, [&](UnitId& u) { ar.u32(u); });
            ar.seq(d.accCounts, [&](std::uint64_t& n) { ar.u64(n); });
            ar.seq(d.curveCapacities, [&](std::uint64_t& c) { ar.u64(c); });
            ar.seq(d.curveMisses, [&](double& m) { ar.d(m); });
        });
        ar.seq(rec.samplerAssignment,
               [&](std::vector<StreamId>& sids) { ar.sids(sids); });
        ar.sids(rec.uncoveredStreams);
        ar.u64(rec.iterations);
        ar.u64(rec.extends);
        ar.u64(rec.merges);
        ar.seq(rec.allocs, [&](DecisionRecord::Alloc& a) {
            ar.u32(a.sid);
            ar.seq(a.shareRows, [&](std::uint32_t& rows) { ar.u32(rows); });
            ar.u32(a.numGroups);
        });
        ar.b(rec.applied);
    });
    ar.u64(flushedRecords_);
}

} // namespace ndpext
