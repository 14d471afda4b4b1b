/**
 * @file
 * The stepping loop of both systems: the running cores in a binary
 * min-heap keyed (cycle, core id).
 *
 * runUntil() steps the earliest core, overwrites its key with the core's
 * new cycle and sifts it down once; a core whose generator ends leaves
 * the heap. Keys are unique (one per core), so the step order is the
 * total order of the keys -- the order any min-priority queue over them
 * yields.
 */

#ifndef NDPEXT_CPU_READY_HEAP_H
#define NDPEXT_CPU_READY_HEAP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.h"
#include "sim/checkpoint.h"

namespace ndpext {

class ReadyHeap
{
  public:
    /** Queue `core` at its current cycle. */
    void push(const InOrderCore& core);

    bool empty() const { return heap_.empty(); }

    /**
     * Step cores in (cycle, core id) order until none is left or the
     * earliest is at or past `until`; `gens[c]` feeds `cores[c]`.
     */
    void runUntil(Cycles until, std::vector<InOrderCore>& cores,
                  const std::vector<std::unique_ptr<AccessGenerator>>& gens);

    /** Core steps taken so far (reported as engine.eventsFired). */
    std::uint64_t steps() const { return steps_; }

    /**
     * Checkpoint pass: the step count and the queued core ids in
     * ascending order. A key is its core's cycle, so loading rebuilds
     * the keys from the already-restored cores.
     */
    void checkpoint(ckpt::Archive& ar, const std::vector<InOrderCore>& cores);

  private:
    struct Entry
    {
        Cycles at;
        CoreId core;
    };

    static bool
    before(const Entry& a, const Entry& b)
    {
        return a.at != b.at ? a.at < b.at : a.core < b.core;
    }

    /** std heap comparator: keeps the earliest key at the front. */
    static bool
    later(const Entry& a, const Entry& b)
    {
        return before(b, a);
    }

    /** Restore the heap order below the root after its key grew. */
    void siftDownRoot();

    std::vector<Entry> heap_;
    std::uint64_t steps_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_CPU_READY_HEAP_H
