#include "cpu/ready_heap.h"

#include <algorithm>

#include "common/logging.h"

namespace ndpext {

void
ReadyHeap::push(const InOrderCore& core)
{
    heap_.push_back(Entry{core.now(), core.id()});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
ReadyHeap::runUntil(Cycles until, std::vector<InOrderCore>& cores,
                    const std::vector<std::unique_ptr<AccessGenerator>>& gens)
{
    while (!heap_.empty() && heap_.front().at < until) {
        const CoreId c = heap_.front().core;
        ++steps_;
        if (cores[c].step(*gens[c])) {
            heap_.front().at = cores[c].now();
            siftDownRoot();
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            heap_.pop_back();
        }
    }
}

void
ReadyHeap::siftDownRoot()
{
    const Entry moved = heap_.front();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) {
            ++child;
        }
        if (!before(heap_[child], moved)) {
            break;
        }
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = moved;
}

void
ReadyHeap::serialize(ckpt::Writer& w) const
{
    std::vector<std::uint32_t> queued;
    queued.reserve(heap_.size());
    for (const Entry& e : heap_) {
        queued.push_back(e.core);
    }
    std::sort(queued.begin(), queued.end());
    w.u64(steps_);
    w.vecU32(queued);
}

void
ReadyHeap::deserialize(ckpt::Reader& r, const std::vector<InOrderCore>& cores)
{
    heap_.clear();
    steps_ = r.u64();
    for (const std::uint32_t c : r.vecU32()) {
        NDP_ASSERT(c < cores.size(), "checkpoint queues nonexistent core ",
                   c);
        push(cores[c]);
    }
}

} // namespace ndpext
