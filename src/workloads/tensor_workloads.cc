#include "workloads/tensor_workloads.h"

#include <algorithm>

#include "common/logging.h"

namespace ndpext {

namespace {

/** Elements covered by one 64 B line for a given element size. */
constexpr std::uint64_t
elemsPerLine(std::uint32_t elem_size)
{
    return elem_size >= kCachelineBytes ? 1 : kCachelineBytes / elem_size;
}

} // namespace

// ---------------------------------------------------------------- recsys

void
RecsysWorkload::doPrepare()
{
    // ~85% of the footprint in embedding tables, a hot 1.5% MLP, outputs.
    const std::uint64_t table_bytes =
        p_.footprintBytes * 85 / 100 / kNumTables;
    rowsPerTable_ = std::max<std::uint64_t>(1024,
                                            table_bytes / kEmbeddingBytes);
    for (std::uint32_t i = 0; i < kNumTables; ++i) {
        tables_.push_back(addDense("emb" + std::to_string(i),
                                   StreamType::Indirect,
                                   rowsPerTable_ * kEmbeddingBytes,
                                   kEmbeddingBytes, true));
    }
    rowPopularity_.emplace(rowsPerTable_, 0.8);
    mlp_ = addDense("mlp_weights", StreamType::Affine,
                    std::max<std::uint64_t>(256_KiB,
                                            p_.footprintBytes / 64),
                    4, true);
    out_ = addDense("outputs", StreamType::Affine,
                    std::max<std::uint64_t>(64_KiB, p_.footprintBytes / 256),
                    4, false);
}

class RecsysGenerator : public BoundedGenerator
{
  public:
    RecsysGenerator(const RecsysWorkload& w, CoreId core)
        : BoundedGenerator(w, core), w_(w),
          rowRng_(mix64(w.params().seed + 101 * core))
    {
    }

    void
    produce(Access& out) override
    {
        // One "sample": lookups into every table, an MLP scan, a write.
        const std::uint32_t lookups =
            RecsysWorkload::kNumTables * RecsysWorkload::kLookupsPerTable;
        const std::uint32_t mlp_lines = 24;
        const std::uint32_t total = lookups + mlp_lines + 1;
        const std::uint32_t step = phase_ % total;
        ++phase_;

        if (step < lookups) {
            const std::uint32_t table =
                step % RecsysWorkload::kNumTables;
            emit(out, w_.tables_[table], w_.rowPopularity_->next(rowRng_),
                 false, 4);
        } else if (step < lookups + mlp_lines) {
            mlpCursor_ = (mlpCursor_ + elemsPerLine(4))
                % cfg(w_.mlp_).numElems();
            emit(out, w_.mlp_, mlpCursor_, false, 8);
        } else {
            outCursor_ = (outCursor_ + elemsPerLine(4))
                % cfg(w_.out_).numElems();
            emit(out, w_.out_, outCursor_, true, 4);
        }
    }

  private:
    const RecsysWorkload& w_;
    Rng rowRng_;
    std::uint64_t phase_ = 0;
    std::uint64_t mlpCursor_ = 0;
    std::uint64_t outCursor_ = 0;
};

std::unique_ptr<AccessGenerator>
RecsysWorkload::makeGenerator(CoreId core) const
{
    return std::make_unique<RecsysGenerator>(*this, core);
}

// -------------------------------------------------------------------- mv

void
MvWorkload::doPrepare()
{
    cols_ = 4096; // 16 kB rows of float32
    const std::uint64_t a_bytes = p_.footprintBytes * 92 / 100;
    const std::uint64_t total_rows =
        std::max<std::uint64_t>(kMatrixBlocks, a_bytes / (cols_ * 4));
    rowsPerBlock_ = std::max<std::uint64_t>(1, total_rows / kMatrixBlocks);
    for (std::uint32_t b = 0; b < kMatrixBlocks; ++b) {
        blocks_.push_back(addDense("A_block" + std::to_string(b),
                                   StreamType::Affine,
                                   rowsPerBlock_ * cols_ * 4, 4, true));
    }
    x_ = addDense("x", StreamType::Affine, cols_ * 4, 4, true);
    y_ = addDense("y", StreamType::Affine,
                  std::max<std::uint64_t>(4096, total_rows * 4), 4, false);
}

class MvGenerator : public BoundedGenerator
{
  public:
    MvGenerator(const MvWorkload& w, CoreId core)
        : BoundedGenerator(w, core), w_(w)
    {
        // Cores process rows round-robin; start staggered.
        row_ = core;
    }

    void
    produce(Access& out) override
    {
        const std::uint64_t lines_per_row =
            w_.cols_ / elemsPerLine(4); // 256 lines of A + x per row
        const std::uint64_t pos = phase_ % (2 * lines_per_row + 1);
        ++phase_;

        const std::uint64_t rows_total =
            w_.rowsPerBlock_ * MvWorkload::kMatrixBlocks;
        const std::uint64_t row = row_ % rows_total;
        const std::uint32_t block = static_cast<std::uint32_t>(
            row / w_.rowsPerBlock_);
        const std::uint64_t row_in_block = row % w_.rowsPerBlock_;

        if (pos < 2 * lines_per_row) {
            const std::uint64_t line = pos / 2;
            if (pos % 2 == 0) {
                emit(out, w_.blocks_[block],
                     row_in_block * w_.cols_ + line * elemsPerLine(4),
                     false, 6);
            } else {
                emit(out, w_.x_, line * elemsPerLine(4), false, 6);
            }
        } else {
            emit(out, w_.y_, row, true, 2);
            row_ += w_.params().numCores; // next owned row
        }
    }

  private:
    const MvWorkload& w_;
    std::uint64_t phase_ = 0;
    std::uint64_t row_ = 0;
};

std::unique_ptr<AccessGenerator>
MvWorkload::makeGenerator(CoreId core) const
{
    return std::make_unique<MvGenerator>(*this, core);
}

// ------------------------------------------------------------------- gnn

void
GnnWorkload::doPrepare()
{
    // Features dominate: V * 256 B ~ 60% of footprint.
    const std::uint64_t feat_budget = p_.footprintBytes * 60 / 100;
    std::uint32_t scale = 10;
    while ((2ULL << scale) * kFeatureBytes <= feat_budget && scale < 24) {
        ++scale;
    }
    graph_ = makeRmatGraph(scale, 16, p_.seed + 7);

    offsets_ = addDense("csr_offsets", StreamType::Affine,
                        (graph_.numVertices + 1) * 8, 8, true);
    edges_ = addDense("csr_edges", StreamType::Affine,
                      std::max<std::uint64_t>(64, graph_.numEdges * 4), 4,
                      true);
    feats_ = addDense("features", StreamType::Indirect,
                      graph_.numVertices * kFeatureBytes, kFeatureBytes,
                      true);
    weights_ = addDense("gcn_weights", StreamType::Affine, 512_KiB, 4,
                        true);
    out_ = addDense("out_features", StreamType::Indirect,
                    graph_.numVertices * kFeatureBytes, kFeatureBytes,
                    false);
}

class GnnGenerator : public BoundedGenerator
{
  public:
    GnnGenerator(const GnnWorkload& w, CoreId core)
        : BoundedGenerator(w, core), w_(w)
    {
        const std::uint64_t per_core =
            w_.graph_.numVertices / w.params().numCores;
        vertex_ = per_core * core;
        end_ = core + 1 == w.params().numCores ? w_.graph_.numVertices
                                               : vertex_ + per_core;
        begin_ = vertex_;
        startVertex();
    }

    void
    produce(Access& out) override
    {
        if (stage_ == 0) {
            emit(out, w_.offsets_, vertex_, false, 2);
            stage_ = 1;
            return;
        }
        if (stage_ == 1) {
            // Scan this vertex's edge list one line at a time, gathering
            // a neighbor feature row per edge seen.
            if (edgeCursor_ < edgeEnd_) {
                if (gatherPending_) {
                    gatherPending_ = false;
                    const std::uint32_t nbr =
                        w_.graph_.edges[edgeCursor_];
                    ++edgeCursor_;
                    emit(out, w_.feats_, nbr, false, 6);
                } else {
                    gatherPending_ = true;
                    emit(out, w_.edges_, edgeCursor_, false, 2);
                }
                return;
            }
            stage_ = 2;
            weightLines_ = 0;
        }
        if (stage_ == 2 && weightLines_ < 8) {
            weightCursor_ = (weightCursor_ + 16)
                % cfg(w_.weights_).numElems();
            ++weightLines_;
            emit(out, w_.weights_, weightCursor_, false, 12);
            return;
        }
        // Write the output feature row and move on.
        emit(out, w_.out_, vertex_, true, 4);
        ++vertex_;
        if (vertex_ >= end_) {
            vertex_ = begin_;
        }
        startVertex();
    }

  private:
    void
    startVertex()
    {
        stage_ = 0;
        edgeCursor_ = w_.graph_.offsets[vertex_];
        edgeEnd_ = w_.graph_.offsets[vertex_ + 1];
        gatherPending_ = false;
    }

    const GnnWorkload& w_;
    std::uint64_t vertex_ = 0;
    std::uint64_t begin_ = 0;
    std::uint64_t end_ = 0;
    int stage_ = 0;
    std::uint64_t edgeCursor_ = 0;
    std::uint64_t edgeEnd_ = 0;
    bool gatherPending_ = false;
    std::uint32_t weightLines_ = 0;
    std::uint64_t weightCursor_ = 0;
};

std::unique_ptr<AccessGenerator>
GnnWorkload::makeGenerator(CoreId core) const
{
    return std::make_unique<GnnGenerator>(*this, core);
}

} // namespace ndpext
