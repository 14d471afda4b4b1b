/**
 * @file
 * Per-stream attribution: one row of counters per stream id, plus one
 * row for kNoStream.
 *
 * Every component that charges a cost to the stream that caused it (core
 * stall cycles, NoC energy, CXL traffic, the stream cache's hits, service
 * latency and lookups) keeps one StreamLedger. Each charge lands in
 * exactly one row, so the rows plus the none row cover the component's
 * machine total; the `stream.<sid>.*` and `stream.none.*` counters read
 * the rows through `at`, which takes kNoStream like any other id.
 */

#ifndef NDPEXT_SIM_STREAM_LEDGER_H
#define NDPEXT_SIM_STREAM_LEDGER_H

#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

template <typename Row>
class StreamLedger
{
  public:
    /** The row charged for `sid` (kNoStream: the none row). A stream's
     *  first charge grows the ledger to hold its row. */
    Row&
    operator[](StreamId sid)
    {
        if (sid == kNoStream) {
            return none_;
        }
        if (sid >= rows_.size()) {
            rows_.resize(sid + std::size_t{1});
        }
        return rows_[sid];
    }

    /** Row `sid` (kNoStream: the none row); a zero row for a stream
     *  never charged. Never grows the ledger. */
    const Row&
    at(StreamId sid) const
    {
        static const Row kZero{};
        if (sid == kNoStream) {
            return none_;
        }
        return sid < rows_.size() ? rows_[sid] : kZero;
    }

    /** `acc = fn(acc, row)` over every stream row, then the none row. */
    template <typename T, typename Fn>
    T
    fold(T acc, Fn&& fn) const
    {
        for (const Row& row : rows_) {
            acc = fn(std::move(acc), row);
        }
        return fn(std::move(acc), none_);
    }

    /** Checkpoint pass: the stream rows as a sequence, then the none
     *  row; `each(row)` names one row's fields. */
    template <typename Fn>
    void
    checkpoint(ckpt::Archive& ar, Fn&& each)
    {
        ar.seq(rows_, each);
        each(none_);
    }

  private:
    /** Row of stream `sid` at index `sid`, up to the highest id charged. */
    std::vector<Row> rows_;
    Row none_{};
};

} // namespace ndpext

#endif // NDPEXT_SIM_STREAM_LEDGER_H
