/**
 * @file
 * Workload framework: each workload defines its data structures as
 * streams (Section VI "Workloads") and supplies one deterministic access
 * generator per core. Datasets are synthesized (R-MAT graphs, dense
 * matrices, embedding tables) but the *stream structure* -- which streams
 * exist, affine vs indirect, read-only vs read-write, per-core sharing,
 * footprint, locality -- follows each application's algorithm, which is
 * all NDPExt's mechanisms observe.
 *
 * Stream ids are assigned by registration order, so generators refer to
 * streams by their index into the workload's config list.
 */

#ifndef NDPEXT_WORKLOADS_WORKLOAD_H
#define NDPEXT_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "cpu/access_generator.h"
#include "sim/checkpoint.h"
#include "stream/stream_table.h"

namespace ndpext {

struct WorkloadParams
{
    std::uint32_t numCores = 64;
    /** Target total data footprint. */
    std::uint64_t footprintBytes = 192_MiB;
    /** Accesses each core executes per run. */
    std::uint64_t accessesPerCore = 50'000;
    std::uint64_t seed = 42;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Synthesize datasets and define stream configs. Call once. */
    void prepare(const WorkloadParams& params);

    /** Register this workload's streams into a (fresh) stream table. */
    void registerStreams(StreamTable& table) const;

    /** Per-core access generator; deterministic given (core, seed). */
    virtual std::unique_ptr<AccessGenerator>
    makeGenerator(CoreId core) const = 0;

    /**
     * Fold workload config beyond WorkloadParams into the checkpoint
     * config hash (NdpSystem::configHash). Workloads whose trajectory
     * is fully determined by (name, params) need not override.
     */
    virtual void
    hashExtra(ckpt::Writer& w) const
    {
        (void)w;
    }

    const WorkloadParams& params() const { return p_; }
    const std::vector<StreamConfig>& streamConfigs() const
    {
        return configs_;
    }
    bool prepared() const { return prepared_; }

    /**
     * Shift every stream's id and base address, for composing several
     * prepared workloads into one stream table / address space (the
     * multi-tenant serving frontend). Generators keep indexing their
     * owner's config list locally; only the emitted sid/addr change.
     */
    void rebaseStreams(StreamId sid_offset, Addr addr_offset);

    /** One past the last allocated address (the footprint extent). */
    Addr addressSpaceEnd() const { return nextAddr_; }

  protected:
    virtual void doPrepare() = 0;

    /** Bump-allocate address space (4 kB aligned). */
    Addr allocBytes(std::uint64_t bytes);

    /** Register a dense 1-D stream; returns its index (== future sid). */
    StreamId addDense(std::string name, StreamType type,
                      std::uint64_t bytes, std::uint32_t elem_size,
                      bool read_only);

    WorkloadParams p_;
    std::vector<StreamConfig> configs_;

  private:
    Addr nextAddr_ = 1_MiB;
    bool prepared_ = false;
};

/**
 * Generator base: emits exactly `accessesPerCore` accesses by cycling an
 * infinite workload-specific pattern.
 */
class BoundedGenerator : public AccessGenerator
{
  public:
    BoundedGenerator(const Workload& w, CoreId core)
        : workload_(w), core_(core), remaining_(w.params().accessesPerCore),
          rng_(mix64(w.params().seed * 7919 + core))
    {
    }

    bool
    next(Access& out) final
    {
        if (remaining_ == 0) {
            return false;
        }
        --remaining_;
        produce(out);
        return true;
    }

  protected:
    /** Emit the next access of the infinite pattern. */
    virtual void produce(Access& out) = 0;

    /** Fill an access to element `elem` of stream index `sid`. */
    void
    emit(Access& out, StreamId sid, ElemId elem, bool write,
         std::uint32_t compute = 2) const
    {
        const StreamConfig& cfg = workload_.streamConfigs()[sid];
        // cfg.sid equals the local index until the workload is rebased
        // into a composite (serving) stream space; always emitting the
        // config's id keeps sub-generators correct in both cases.
        out.sid = cfg.sid;
        out.elem = elem % cfg.numElems();
        out.addr = cfg.addrOf(out.elem);
        out.size = std::min<std::uint32_t>(cfg.elemSize, kCachelineBytes);
        out.isWrite = write;
        out.computeCycles = compute;
    }

    const StreamConfig&
    cfg(StreamId sid) const
    {
        return workload_.streamConfigs()[sid];
    }

    const Workload& workload_;
    CoreId core_;
    std::uint64_t remaining_;
    Rng rng_;
};

/** Instantiate a workload by name ("pr", "bfs", "mv", ...). */
std::unique_ptr<Workload> makeWorkload(const std::string& name);

/** All 13 workload names in the paper's order. */
const std::vector<std::string>& allWorkloadNames();

} // namespace ndpext

#endif // NDPEXT_WORKLOADS_WORKLOAD_H
