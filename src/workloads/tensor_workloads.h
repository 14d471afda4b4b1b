/**
 * @file
 * Tensor workloads (Section VI): DLRM-style recommendation inference
 * (recsys), matrix-vector multiplication (mv), and a GCN layer (gnn).
 *
 * Accesses are emitted at cacheline granularity (one access per touched
 * 64 B line, with computeCycles covering the arithmetic on that line), the
 * standard trace-decimation used by memory-system simulators.
 */

#ifndef NDPEXT_WORKLOADS_TENSOR_WORKLOADS_H
#define NDPEXT_WORKLOADS_TENSOR_WORKLOADS_H

#include <optional>

#include "workloads/graph.h"
#include "workloads/workload.h"

namespace ndpext {

/**
 * recsys: embedding tables are read-only indirect streams with zipfian
 * row popularity (hot rows benefit from replication); the MLP weights are
 * a small, hot, shared read-only affine stream; per-core outputs are
 * read-write. The paper's headline workload (up to 2.43x).
 */
class RecsysWorkload : public Workload
{
  public:
    std::string name() const override { return "recsys"; }
    std::unique_ptr<AccessGenerator> makeGenerator(CoreId core) const
        override;

    static constexpr std::uint32_t kNumTables = 8;
    static constexpr std::uint32_t kEmbeddingBytes = 128;
    static constexpr std::uint32_t kLookupsPerTable = 2;

  protected:
    void doPrepare() override;

  private:
    friend class RecsysGenerator;
    std::vector<StreamId> tables_;
    StreamId mlp_ = 0;
    StreamId out_ = 0;
    std::uint64_t rowsPerTable_ = 0;
    /** Zipf(0.8) over a table's rows, shared by every core's generator. */
    std::optional<ZipfSampler> rowPopularity_;
};

/**
 * mv: the matrix is split into many row-block affine streams ("applications
 * with many streams like mv"); the input vector is a small, shared,
 * read-only affine stream (highly replication-friendly); the output vector
 * is read-write.
 */
class MvWorkload : public Workload
{
  public:
    std::string name() const override { return "mv"; }
    std::unique_ptr<AccessGenerator> makeGenerator(CoreId core) const
        override;

    static constexpr std::uint32_t kMatrixBlocks = 16;

  protected:
    void doPrepare() override;

  private:
    friend class MvGenerator;
    std::vector<StreamId> blocks_;
    StreamId x_ = 0;
    StreamId y_ = 0;
    std::uint64_t rowsPerBlock_ = 0;
    std::uint64_t cols_ = 0;
};

/**
 * gnn: graph convolution via sparse-dense multiply. CSR offsets/edges are
 * affine scans; neighbor feature rows are gathered through a read-only
 * indirect stream; the weight matrix is small and hot.
 */
class GnnWorkload : public Workload
{
  public:
    std::string name() const override { return "gnn"; }
    std::unique_ptr<AccessGenerator> makeGenerator(CoreId core) const
        override;

    static constexpr std::uint32_t kFeatureBytes = 256;

  protected:
    void doPrepare() override;

  private:
    friend class GnnGenerator;
    CsrGraph graph_;
    StreamId offsets_ = 0;
    StreamId edges_ = 0;
    StreamId feats_ = 0;
    StreamId weights_ = 0;
    StreamId out_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_WORKLOADS_TENSOR_WORKLOADS_H
