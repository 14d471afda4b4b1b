/**
 * @file
 * The adapted NUCA baseline policies (Section VI "Baseline designs"),
 * expressed as Configurators over the shared cacheline-grained datapath
 * (StreamCacheParams::cachelineMode).
 *
 *  - StaticInterleave: every line hashed uniformly across all units; the
 *    policy used for the Fig. 2 motivation study.
 *  - Jigsaw [6]: miss-curve-driven sizing (lookahead) with center-of-mass
 *    placement; no replication.
 *  - Whirlpool [56]: statically classified data structures (our streams),
 *    footprint-proportional sizing, center-of-mass placement; one-shot.
 *  - Nexus [71]: Jigsaw sizing plus replication of read-only data with a
 *    single *global* replication degree chosen per epoch.
 */

#ifndef NDPEXT_BASELINES_NUCA_POLICIES_H
#define NDPEXT_BASELINES_NUCA_POLICIES_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "ndp/remap_table.h"
#include "noc/noc_model.h"
#include "runtime/config_algorithm.h"
#include "runtime/ndp_runtime.h"

namespace ndpext {

/** Geometry/capacity context shared by the baseline policies. */
struct BaselineContext
{
    std::uint32_t numUnits = 0;
    std::uint32_t rowsPerUnit = 0;
    std::uint32_t rowBytes = 2048;
    Cycles dramLatency = 40;
};

/**
 * Center-of-mass placement helper: distribute `rows` for a stream across
 * units ordered by access-weighted latency (Jigsaw/Whirlpool's iterative
 * move-to-centroid, computed directly), respecting `free_rows`.
 * @return rows placed per unit (indexed by unit).
 */
std::vector<std::uint32_t>
placeCenterOfMass(const StreamDemand& demand, std::uint64_t rows,
                  const std::vector<std::uint32_t>& free_rows,
                  const NocModel& noc);

class StaticInterleaveConfigurator : public Configurator
{
  public:
    StaticInterleaveConfigurator(const BaselineContext& ctx,
                                 const NocModel& noc)
        : ctx_(ctx), noc_(noc)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override;

    bool reconfigures() const override { return false; }
    std::string name() const override { return "static-interleave"; }

  private:
    BaselineContext ctx_;
    const NocModel& noc_;
};

class JigsawConfigurator : public Configurator
{
  public:
    JigsawConfigurator(const BaselineContext& ctx, const NocModel& noc)
        : ctx_(ctx), noc_(noc)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override;

    std::string name() const override { return "jigsaw"; }

  protected:
    /** Lookahead sizing shared with Nexus: bytes per stream. */
    std::vector<std::uint64_t>
    sizeStreams(const std::vector<StreamDemand>& demands,
                std::uint64_t total_bytes) const;

    BaselineContext ctx_;
    const NocModel& noc_;
};

class WhirlpoolConfigurator : public Configurator
{
  public:
    WhirlpoolConfigurator(const BaselineContext& ctx, const NocModel& noc)
        : ctx_(ctx), noc_(noc)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override;

    bool reconfigures() const override { return false; }
    std::string name() const override { return "whirlpool"; }

  private:
    BaselineContext ctx_;
    const NocModel& noc_;
};

class NexusConfigurator : public JigsawConfigurator
{
  public:
    NexusConfigurator(const BaselineContext& ctx, const NocModel& noc,
                      std::uint32_t max_degree = 4)
        : JigsawConfigurator(ctx, noc), maxDegree_(max_degree)
    {
    }

    std::vector<std::pair<StreamId, StreamAlloc>>
    configure(const std::vector<StreamDemand>& demands) override;

    std::string name() const override { return "nexus"; }

    /** The globally chosen replication degree of the last epoch. */
    std::uint32_t lastDegree() const { return lastDegree_; }

  private:
    std::uint32_t maxDegree_;
    std::uint32_t lastDegree_ = 1;
};

} // namespace ndpext

#endif // NDPEXT_BASELINES_NUCA_POLICIES_H
