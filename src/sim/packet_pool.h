/**
 * @file
 * Slab-backed free-list allocator for Packet objects.
 *
 * The hot loop creates a Packet (with its embedded LatencyBreakdown)
 * for every L1 miss, dirty writeback and victim eviction. Those are
 * short-lived, identically-sized objects, so a pool turns each one into
 * a pointer bump (fresh) or a free-list pop (recycled) instead of stack
 * construction + copy into MSHR state.
 *
 * Ownership rules (see DESIGN.md "Engine internals"):
 *  - A pool is private to one owner (a core, or the stream cache's
 *    victim-writeback path): pools are NOT thread-safe and must never
 *    be shared.
 *  - acquire() returns a default-initialised live packet; release()
 *    returns it to the owner's free list. Releasing a packet twice is a
 *    hard error (NDP_ASSERT, always on).
 *  - Slabs are never freed while the pool lives, so raw Packet*
 *    handles stay valid for the owner's lifetime even while the packet
 *    is logically free (MSHR slots exploit this by keeping their packet
 *    across recycles).
 */

#ifndef NDPEXT_SIM_PACKET_POOL_H
#define NDPEXT_SIM_PACKET_POOL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "sim/checkpoint.h"
#include "sim/packet.h"

namespace ndpext {

class PacketPool
{
  public:
    /** Packets per slab; slabs are allocated on demand. */
    static constexpr std::size_t kSlabPackets = 64;

    /** Get a live, default-initialised packet. */
    Packet*
    acquire()
    {
        Packet* pkt;
        if (free_ != nullptr) {
            pkt = free_;
            free_ = pkt->poolNext;
            *pkt = Packet{}; // also clears pooled/poolNext
        } else {
            if (slabUsed_ == kSlabPackets) {
                slabs_.push_back(std::make_unique<Packet[]>(kSlabPackets));
                slabUsed_ = 0;
            }
            pkt = &slabs_.back()[slabUsed_++];
            ++allocated_;
        }
        ++inUse_;
        if (inUse_ > highWater_) {
            highWater_ = inUse_;
        }
        return pkt;
    }

    /** Return a packet to the free list. Double release is fatal. */
    void
    release(Packet* pkt)
    {
        NDP_ASSERT(pkt != nullptr);
        NDP_ASSERT(!pkt->pooled, "double release of pooled packet");
        NDP_ASSERT(inUse_ > 0);
        pkt->pooled = true;
        pkt->poolNext = free_;
        free_ = pkt;
        --inUse_;
    }

    /** Live (acquired, not yet released) packets. */
    std::uint64_t inUse() const { return inUse_; }
    /** Maximum simultaneous live packets ever observed. */
    std::uint64_t highWater() const { return highWater_; }
    /** Slab objects ever constructed (recycles don't count). */
    std::uint64_t allocated() const { return allocated_; }

    /**
     * Checkpoint pass: equivalent-state restore. Packet contents are
     * reset on acquire(), so only the allocation counters matter; the
     * restored pool holds `allocated` packets, all free. Owners that
     * keep live packets across barriers (MSHR slots) re-acquire them in
     * their own checkpoint pass, restoring inUse without touching the
     * allocated/high-water counters.
     */
    void
    checkpoint(ckpt::Archive& ar)
    {
        if (ar.loading()) {
            NDP_ASSERT(allocated_ == 0 && inUse_ == 0,
                       "pool restore requires a fresh pool");
        }
        std::uint64_t alloc = allocated_;
        ar.u64(alloc);
        ar.u64(highWater_);
        if (!ar.loading()) {
            return;
        }
        for (std::uint64_t i = 0; i < alloc; ++i) {
            if (slabUsed_ == kSlabPackets) {
                slabs_.push_back(std::make_unique<Packet[]>(kSlabPackets));
                slabUsed_ = 0;
            }
            Packet* pkt = &slabs_.back()[slabUsed_++];
            ++allocated_;
            pkt->pooled = true;
            pkt->poolNext = free_;
            free_ = pkt;
        }
    }

  private:
    Packet* free_ = nullptr;
    std::vector<std::unique_ptr<Packet[]>> slabs_;
    /** Cursor into the newest slab; == kSlabPackets when full/empty. */
    std::size_t slabUsed_ = kSlabPackets;
    std::uint64_t inUse_ = 0;
    std::uint64_t highWater_ = 0;
    std::uint64_t allocated_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_SIM_PACKET_POOL_H
