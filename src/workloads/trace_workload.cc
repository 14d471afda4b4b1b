#include "workloads/trace_workload.h"

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "stream/stream_table.h"

namespace ndpext {

namespace {

/** Generator replaying one core's recorded accesses. */
class TraceGenerator : public AccessGenerator
{
  public:
    TraceGenerator(const TraceWorkload& w, CoreId core)
        : workload_(w), core_(core)
    {
    }

    bool
    next(Access& out) override
    {
        const auto& trace = workload_.coreTrace(core_);
        if (cursor_ >= trace.size()) {
            return false;
        }
        const auto& t = trace[cursor_++];
        const StreamConfig& cfg = workload_.streamConfigs()[t.sid];
        out.sid = t.sid;
        out.elem = t.elem;
        out.addr = cfg.addrOf(t.elem);
        out.size = std::min<std::uint32_t>(cfg.elemSize, kCachelineBytes);
        out.isWrite = t.isWrite;
        out.computeCycles = t.computeCycles;
        return true;
    }

  private:
    const TraceWorkload& workload_;
    CoreId core_;
    std::size_t cursor_ = 0;
};

} // namespace

void
TraceWorkload::doPrepare()
{
    // Streams and accesses were installed by parse(); nothing to build.
    NDP_ASSERT(!configs_.empty(), "trace defined no streams");
}

std::unique_ptr<AccessGenerator>
TraceWorkload::makeGenerator(CoreId core) const
{
    NDP_ASSERT(core < perCore_.size(), "core ", core, " out of range");
    return std::make_unique<TraceGenerator>(*this, core);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::parse(std::istream& in, std::uint32_t num_cores,
                     const std::string& source, std::string* error)
{
    NDP_ASSERT(num_cores > 0);
    NDP_ASSERT(error != nullptr);
    error->clear();
    auto w = std::unique_ptr<TraceWorkload>(new TraceWorkload());
    w->perCore_.resize(num_cores);

    std::uint64_t footprint = 0;
    // Declared streams by base address, to reject overlaps as the
    // stream table would (one address belongs to at most one stream).
    std::map<Addr, std::size_t> by_base;
    std::string line;
    std::size_t line_no = 0;
    // Diagnostics carry the source name and line so a user can fix the
    // offending line of a multi-thousand-line trace directly.
    auto fail = [&](const std::string& what) {
        std::ostringstream os;
        os << source << ":" << line_no << ": " << what;
        *error = os.str();
        return std::unique_ptr<TraceWorkload>();
    };
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream ss(line);
        std::vector<std::string> tok;
        for (std::string t; ss >> t;) {
            tok.push_back(std::move(t));
        }
        if (tok.empty()) {
            continue; // blank line
        }
        // A numeric field that does not parse names itself and its text.
        auto bad = [&](const char* field, const std::string& text) {
            return fail("bad " + std::string(field) + " '" + text + "'");
        };
        if (tok[0] == "stream") {
            if (tok.size() != 7) {
                return fail("malformed stream record (expected: stream "
                            "<name> <affine|indirect> <base-hex> <size> "
                            "<elemSize> <ro|rw>)");
            }
            const std::string& type_str = tok[2];
            const std::string& rw = tok[6];
            StreamType type;
            if (type_str == "affine") {
                type = StreamType::Affine;
            } else if (type_str == "indirect") {
                type = StreamType::Indirect;
            } else {
                return fail("bad stream type '" + type_str
                            + "' (expected affine|indirect)");
            }
            Addr base = 0;
            std::uint64_t size = 0;
            std::uint32_t elem_size = 0;
            if (!parseAddress(tok[3], &base)) {
                return bad("stream base", tok[3]);
            }
            if (!parseCount(tok[4], &size)) {
                return bad("stream size", tok[4]);
            }
            if (!parseCount(tok[5], &elem_size)) {
                return bad("stream elemSize", tok[5]);
            }
            if (rw != "ro" && rw != "rw") {
                return fail("expected ro|rw, got '" + rw + "'");
            }
            if (size == 0 || elem_size == 0 || size % elem_size != 0) {
                return fail("bad stream geometry (size=" +
                            std::to_string(size) + " elemSize="
                            + std::to_string(elem_size)
                            + "; size must be a positive multiple of "
                              "elemSize)");
            }
            if (w->configs_.size() >= StreamTable::kMaxStreams) {
                return fail("too many streams (at most "
                            + std::to_string(StreamTable::kMaxStreams)
                            + ")");
            }
            if (size > ~base) {
                return fail("stream " + tok[1]
                            + " runs past the end of the address space");
            }
            const auto next = by_base.upper_bound(base);
            if (next != by_base.end() && base + size > next->first) {
                return fail("stream " + tok[1] + " overlaps stream "
                            + w->configs_[next->second].name);
            }
            if (next != by_base.begin()) {
                const StreamConfig& prev =
                    w->configs_[std::prev(next)->second];
                if (prev.end() > base) {
                    return fail("stream " + tok[1] + " overlaps stream "
                                + prev.name);
                }
            }
            by_base.emplace(base, w->configs_.size());
            StreamConfig cfg =
                StreamConfig::dense(tok[1], type, base, size, elem_size);
            cfg.readOnly = rw == "ro";
            cfg.sid = static_cast<StreamId>(w->configs_.size());
            w->configs_.push_back(std::move(cfg));
            footprint += size;
        } else if (tok[0] == "a") {
            if (tok.size() != 5 && tok.size() != 6) {
                return fail("malformed access record (expected: a <core> "
                            "<sid> <elem> <r|w> [computeCycles])");
            }
            std::uint32_t core = 0;
            std::uint32_t sid = 0;
            ElemId elem = 0;
            const std::string& rw = tok[4];
            std::uint32_t compute = 2;
            if (!parseCount(tok[1], &core)) {
                return bad("core", tok[1]);
            }
            if (!parseCount(tok[2], &sid)) {
                return bad("sid", tok[2]);
            }
            if (!parseCount(tok[3], &elem)) {
                return bad("elem", tok[3]);
            }
            if (tok.size() == 6 && !parseCount(tok[5], &compute)) {
                return bad("computeCycles", tok[5]);
            }
            if (core >= num_cores) {
                return fail("core " + std::to_string(core)
                            + " >= " + std::to_string(num_cores));
            }
            if (sid >= w->configs_.size()) {
                return fail("unknown sid " + std::to_string(sid));
            }
            if (elem >= w->configs_[sid].numElems()) {
                return fail("elem " + std::to_string(elem)
                            + " out of range for stream "
                            + w->configs_[sid].name);
            }
            if (rw != "r" && rw != "w") {
                return fail("expected r|w, got '" + rw + "'");
            }
            w->perCore_[core].push_back(TraceAccess{
                static_cast<StreamId>(sid), elem, rw == "w",
                std::max<std::uint32_t>(1, compute)});
        } else {
            return fail("unknown record '" + tok[0]
                        + "' (expected 'stream' or 'a')");
        }
    }
    if (w->configs_.empty()) {
        line_no = 0;
        return fail("trace defined no streams");
    }

    std::size_t max_accesses = 1;
    for (const auto& core : w->perCore_) {
        max_accesses = std::max(max_accesses, core.size());
    }
    WorkloadParams params;
    params.numCores = num_cores;
    params.footprintBytes = std::max<std::uint64_t>(1, footprint);
    params.accessesPerCore = max_accesses;
    w->prepare(params);
    return w;
}

std::unique_ptr<TraceWorkload>
TraceWorkload::parse(std::istream& in, std::uint32_t num_cores)
{
    std::string error;
    auto w = parse(in, num_cores, "<trace>", &error);
    if (w == nullptr) {
        NDP_FATAL("trace ", error);
    }
    return w;
}

std::unique_ptr<TraceWorkload>
TraceWorkload::parseFile(const std::string& path, std::uint32_t num_cores,
                         std::string* error)
{
    NDP_ASSERT(error != nullptr);
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open trace file: " + path;
        return nullptr;
    }
    return parse(in, num_cores, path, error);
}

std::unique_ptr<TraceWorkload>
TraceWorkload::parseFile(const std::string& path, std::uint32_t num_cores)
{
    std::string error;
    auto w = parseFile(path, num_cores, &error);
    if (w == nullptr) {
        NDP_FATAL("trace ", error);
    }
    return w;
}

} // namespace ndpext
