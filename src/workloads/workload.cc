#include "workloads/workload.h"

#include <utility>

#include "common/bitutils.h"
#include "common/logging.h"

namespace ndpext {

void
Workload::prepare(const WorkloadParams& params)
{
    NDP_ASSERT(!prepared_, "prepare() called twice on ", name());
    NDP_ASSERT(params.numCores > 0 && params.footprintBytes > 0
               && params.accessesPerCore > 0);
    p_ = params;
    doPrepare();
    NDP_ASSERT(!configs_.empty(), name(), " registered no streams");
    prepared_ = true;
}

void
Workload::registerStreams(StreamTable& table) const
{
    NDP_ASSERT(prepared_, "registerStreams before prepare on ", name());
    for (const StreamConfig& cfg : configs_) {
        const StreamId sid = table.configureStream(cfg);
        NDP_ASSERT(sid == cfg.sid,
                   "stream table not empty when registering ", name());
    }
}

void
Workload::rebaseStreams(StreamId sid_offset, Addr addr_offset)
{
    NDP_ASSERT(prepared_, "rebaseStreams before prepare on ", name());
    for (StreamConfig& cfg : configs_) {
        cfg.sid = static_cast<StreamId>(cfg.sid + sid_offset);
        cfg.base += addr_offset;
    }
    nextAddr_ += addr_offset;
}

Addr
Workload::allocBytes(std::uint64_t bytes)
{
    const Addr base = nextAddr_;
    nextAddr_ = alignUp(nextAddr_ + bytes, 4096);
    return base;
}

StreamId
Workload::addDense(std::string name, StreamType type, std::uint64_t bytes,
                   std::uint32_t elem_size, bool read_only)
{
    bytes = alignUp(std::max<std::uint64_t>(bytes, elem_size), elem_size);
    StreamConfig cfg = StreamConfig::dense(
        std::move(name), type, allocBytes(bytes), bytes, elem_size);
    cfg.readOnly = read_only;
    cfg.sid = static_cast<StreamId>(configs_.size());
    configs_.push_back(std::move(cfg));
    return configs_.back().sid;
}

} // namespace ndpext
