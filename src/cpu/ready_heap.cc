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
ReadyHeap::checkpoint(ckpt::Archive& ar,
                      const std::vector<InOrderCore>& cores)
{
    ar.u64(steps_);
    std::vector<CoreId> queued;
    if (!ar.loading()) {
        queued.reserve(heap_.size());
        for (const Entry& e : heap_) {
            queued.push_back(e.core);
        }
        std::sort(queued.begin(), queued.end());
    }
    ar.seq(queued, [&](CoreId& c) { ar.u32(c); });
    if (ar.loading()) {
        heap_.clear();
        for (const CoreId c : queued) {
            NDP_ASSERT(c < cores.size(), "checkpoint queues nonexistent core ",
                       c);
            push(cores[c]);
        }
    }
}

} // namespace ndpext
