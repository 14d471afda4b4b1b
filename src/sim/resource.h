/**
 * @file
 * Contention primitives of the cycle-approximate model.
 *
 * A BandwidthResource represents anything that serializes transfers (a DRAM
 * bank data bus, an inter-stack SerDes link, the CXL port). Because one
 * access's latency chain is evaluated end-to-end, reservations arrive out
 * of simulated-time order (a miss reserves its response link far in the
 * future before another core's earlier request is seen). A scalar
 * next-free-time would turn that into phantom queueing, so reservations
 * are kept as busy *intervals* and new requests fill the earliest gap at
 * or after their arrival time.
 *
 * The busy list is a contiguous window of disjoint intervals sorted by
 * start time, inside a fixed buffer. Disjoint + sorted-by-start implies
 * the end times are strictly increasing too, so the prefix of intervals
 * entirely before an arrival is found by binary search instead of a
 * linear walk -- this is the simulator's hottest loop (every NoC
 * inter-stack hop, DRAM bank and CXL link reservation lands here). New
 * intervals land near the tail (future reservations pile up there), so a
 * tail insert is one memmove; dropping the earliest interval slides the
 * window right, and the window is compacted to the buffer's front when
 * it reaches the end. The first-fit semantics, the kMaxTracked
 * drop-earliest cap and every returned start time are exactly those of
 * the original linear implementation (pinned by the bench baselines'
 * bit-identity gate).
 */

#ifndef NDPEXT_SIM_RESOURCE_H
#define NDPEXT_SIM_RESOURCE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "common/types.h"
#include "sim/checkpoint.h"

namespace ndpext {

class BandwidthResource
{
  public:
    /**
     * @param bytes_per_cycle Service bandwidth. Fractional values are
     *        supported (e.g., 32 GB/s at 2 GHz = 16 bytes/cycle).
     */
    explicit BandwidthResource(double bytes_per_cycle = 0.0)
        : bytesPerCycle_(bytes_per_cycle)
    {
    }

    BandwidthResource(const BandwidthResource& other)
        : bytesPerCycle_(other.bytesPerCycle_), head_(other.head_),
          count_(other.count_), reservations_(other.reservations_),
          queueCycles_(other.queueCycles_)
    {
        if (other.buf_ != nullptr) {
            buf_ = std::make_unique<Interval[]>(kCap);
            std::copy_n(other.buf_.get(), kCap, buf_.get());
        }
    }

    BandwidthResource&
    operator=(const BandwidthResource& other)
    {
        if (this != &other) {
            *this = BandwidthResource(other);
        }
        return *this;
    }

    BandwidthResource(BandwidthResource&&) = default;
    BandwidthResource& operator=(BandwidthResource&&) = default;

    void
    setBandwidth(double bytes_per_cycle)
    {
        bytesPerCycle_ = bytes_per_cycle;
    }

    /**
     * Occupy the resource for `duration` cycles (a transfer's
     * serviceCycles) starting at the earliest gap at or after `now`
     * (first-fit insertion into the busy list).
     * @return the time the occupation starts (>= now).
     */
    Cycles
    reserveFor(Cycles duration, Cycles now)
    {
        if (duration == 0) {
            duration = 1;
        }
        if (buf_ == nullptr) {
            buf_ = std::make_unique<Interval[]>(kCap);
        }
        Cycles t = now;
        // Ends are strictly increasing (disjoint intervals sorted by
        // start): binary-search past the prefix that is entirely before
        // the arrival, then walk the (short) run of collisions.
        std::size_t pos = firstEndAfter(now);
        for (; pos < count_; ++pos) {
            const Interval& iv = at(pos);
            if (iv.start >= t + duration) {
                break; // we fit in the gap before this interval
            }
            t = iv.end; // collide: try right after it
        }
        // Every interval before `pos` starts before `t` and every one at
        // or after it starts at `t + duration` or later, so `pos` IS the
        // sorted insertion point for (t, t + duration).
        insertAt(pos, Interval{t, t + duration});
        if (count_ > kMaxTracked) {
            // Drop the earliest-starting interval. That is not always
            // in the past: when the new interval starts before every
            // tracked one, it is the one dropped, and later requests
            // see its slot as free. The NoC and CXL links sit at the cap
            // almost always, and drop a share of their new reservations
            // this way; the DRAM banks drop none.
            popFront();
        }
        ++reservations_;
        queueCycles_ += t - now;
        return t;
    }

    /** Cycles to push `bytes` through the resource. */
    Cycles
    serviceCycles(std::uint64_t bytes) const
    {
        NDP_ASSERT(bytesPerCycle_ > 0.0, "unconfigured bandwidth resource");
        const double c = static_cast<double>(bytes) / bytesPerCycle_;
        const auto whole = static_cast<Cycles>(c);
        return whole + (static_cast<double>(whole) < c ? 1 : 0);
    }

    /** End of the latest tracked reservation. */
    Cycles
    nextFree() const
    {
        return count_ == 0 ? 0 : at(count_ - 1).end;
    }

    std::uint64_t reservations() const { return reservations_; }
    Cycles totalQueueCycles() const { return queueCycles_; }

    /**
     * Checkpoint pass. The bandwidth is configuration (rebuilt by the
     * owner); only the busy list and counters travel. Intervals are
     * stored in logical order, so the restored window is equivalent with
     * head_ = 0 wherever the original window sat in the buffer.
     */
    void
    checkpoint(ckpt::Archive& ar)
    {
        std::uint64_t n = count_;
        ar.count(n);
        if (ar.loading()) {
            NDP_ASSERT(n <= kMaxTracked, "bad interval count ", n);
            if (n > 0 && buf_ == nullptr) {
                buf_ = std::make_unique<Interval[]>(kCap);
            }
            head_ = 0;
            count_ = n;
        }
        for (std::size_t i = 0; i < count_; ++i) {
            ar.u64(at(i).start);
            ar.u64(at(i).end);
        }
        ar.u64(reservations_);
        ar.u64(queueCycles_);
    }

  private:
    struct Interval
    {
        Cycles start;
        Cycles end;
    };

    /** Intervals kept; past the cap the earliest-starting one is
     *  dropped (see reserveFor). */
    static constexpr std::size_t kMaxTracked = 128;
    /** Buffer capacity: room for the window (kMaxTracked + 1 while an
     *  insert is pending) to slide before it must be compacted. */
    static constexpr std::size_t kCap = 256;

    const Interval&
    at(std::size_t i) const
    {
        return buf_[head_ + i];
    }

    Interval&
    at(std::size_t i)
    {
        return buf_[head_ + i];
    }

    /** Index of the first interval with end > t (count_ if none). */
    std::size_t
    firstEndAfter(Cycles t) const
    {
        std::size_t lo = 0;
        std::size_t hi = count_;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).end <= t) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    /**
     * Insert `iv` at logical index `pos`. A front-half insert shifts the
     * head left into the free slot before the window when there is one;
     * otherwise the tail shifts right, after compacting the window to the
     * buffer's front if it reached the end.
     */
    void
    insertAt(std::size_t pos, Interval iv)
    {
        Interval* first = buf_.get() + head_;
        if (pos * 2 < count_ && head_ > 0) {
            std::memmove(first - 1, first, pos * sizeof(Interval));
            --head_;
        } else {
            if (head_ + count_ == kCap) {
                std::memmove(buf_.get(), first, count_ * sizeof(Interval));
                head_ = 0;
                first = buf_.get();
            }
            std::memmove(first + pos + 1, first + pos,
                         (count_ - pos) * sizeof(Interval));
        }
        ++count_;
        at(pos) = iv;
    }

    void
    popFront()
    {
        ++head_;
        --count_;
    }

    double bytesPerCycle_;
    /** Disjoint busy intervals sorted by start, in the window
     *  [head_, head_ + count_) (lazily allocated). */
    std::unique_ptr<Interval[]> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t reservations_ = 0;
    Cycles queueCycles_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_SIM_RESOURCE_H
