/**
 * @file
 * The interface between workloads and cores.
 *
 * A workload supplies one AccessGenerator per core; the in-order core pulls
 * accesses one at a time, exactly like an execution-driven trace. Generators
 * are deterministic (seeded Rng) and lazy -- no trace files are ever
 * materialized.
 *
 * Open-loop serving generators additionally observe the core's clock (the
 * two-argument next() overload) to decide which queued request to serve
 * next, and learn request completion times through onRetire(). Both hooks
 * default to clock-oblivious no-ops so closed-loop generators are
 * byte-identical with pre-serving builds.
 */

#ifndef NDPEXT_CPU_ACCESS_GENERATOR_H
#define NDPEXT_CPU_ACCESS_GENERATOR_H

#include "common/types.h"

namespace ndpext {

namespace ckpt {
class Archive;
} // namespace ckpt

class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /**
     * Produce the next access for this core.
     * @return false when the core's work is exhausted.
     */
    virtual bool next(Access& out) = 0;

    /**
     * Clock-aware variant used by the core: `now` is the core's cycle
     * count before this access executes. Serving generators use it to
     * pick among arrived requests (priority scheduling needs to know
     * what has arrived by service time); the default ignores it.
     */
    virtual bool
    next(Access& out, Cycles now)
    {
        (void)now;
        return next(out);
    }

    /**
     * Completion callback: the core reports `done` (its clock, or the
     * miss completion time for the request's last access) for every
     * access flagged endOfRequest. Called in emission order.
     */
    virtual void
    onRetire(const Access& acc, Cycles done)
    {
        (void)acc;
        (void)done;
    }

    /**
     * Checkpoint hooks. Generators whose state is a pure function of
     * the number of successful next() calls need none of this: resume
     * replays them (NdpSystem). A generator that also accumulates
     * completion-side state (latency records, queues popped by
     * onRetire) returns true from checkpointSelfContained() and names
     * *all* of its state in checkpointExtra(); NdpSystem then skips the
     * access replay for it.
     */
    virtual bool checkpointSelfContained() const { return false; }
    virtual void checkpointExtra(ckpt::Archive& ar) { (void)ar; }
};

} // namespace ndpext

#endif // NDPEXT_CPU_ACCESS_GENERATOR_H
