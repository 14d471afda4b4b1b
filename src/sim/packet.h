/**
 * @file
 * The unit of communication between memory-system components.
 *
 * A Packet is created at the L1-miss point and threaded through the
 * memory system (core -> controller -> NoC -> DRAM / extended memory).
 * Components operate in atomic mode: recvAtomic() advances the packet's
 * `ready` time and charges the elapsed cycles to the matching bucket of
 * the packet's accumulating LatencyBreakdown, so the requester ends up
 * with both the completion time and the Fig. 2(a)-style attribution of
 * where those cycles went. This mirrors gem5's atomic packet protocol
 * without its ports: a core sends to the MemSink it was built with, and
 * the controller calls its NocModel and ExtendedMemory directly.
 */

#ifndef NDPEXT_SIM_PACKET_H
#define NDPEXT_SIM_PACKET_H

#include <cstdint>

#include "common/types.h"
#include "sim/breakdown.h"

namespace ndpext {

enum class MemOp : std::uint8_t
{
    Read,
    Write,
    /** Non-blocking dirty-line eviction; no response expected. */
    Writeback,
};

struct Packet
{
    Addr addr = 0;
    std::uint32_t bytes = kCachelineBytes;
    MemOp op = MemOp::Read;

    /** Stream identity (kNoStream for non-stream traffic). */
    StreamId sid = kNoStream;
    ElemId elem = 0;

    /** Requesting core. */
    CoreId src = 0;

    /**
     * Current interconnect leg, consumed by NocModel::recvAtomic.
     * kCxlEndpoint as either end addresses the CXL portal.
     */
    UnitId hopSrc = kNoUnit;
    UnitId hopDst = kNoUnit;

    /** The packet's current simulated time; components advance it. */
    Cycles ready = 0;

    /** Accumulated per-bucket latency along the packet's path. */
    LatencyBreakdown bd;

    /** Set by ExtendedMemory when a read returned a poisoned line. */
    bool poisoned = false;

    /**
     * Intrusive PacketPool hooks (sim/packet_pool.h): the free-list
     * link threads released packets without any side allocation, and
     * `pooled` marks a packet currently sitting in the free list so a
     * double release is caught at the release point.
     */
    Packet* poolNext = nullptr;
    bool pooled = false;

    /** Sentinel unit id addressing the CXL attach point. */
    static constexpr UnitId kCxlEndpoint = kNoUnit - 1;

    bool isWrite() const { return op != MemOp::Read; }

    static Packet
    request(const Access& acc, CoreId core, Cycles now)
    {
        Packet pkt;
        pkt.addr = acc.addr;
        pkt.bytes = acc.size;
        pkt.op = acc.isWrite ? MemOp::Write : MemOp::Read;
        pkt.sid = acc.sid;
        pkt.elem = acc.elem;
        pkt.src = core;
        pkt.ready = now;
        return pkt;
    }

    static Packet
    writeback(Addr line_addr, CoreId core, Cycles now)
    {
        Packet pkt;
        pkt.addr = line_addr;
        pkt.bytes = kCachelineBytes;
        pkt.op = MemOp::Writeback;
        pkt.src = core;
        pkt.ready = now;
        return pkt;
    }
};

/**
 * Where a core sends its L1 misses and writebacks: the stream cache
 * controller (NDP) or the host LLC.
 */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /** Service `pkt` now; advances pkt.ready and charges pkt.bd. */
    virtual void recvAtomic(Packet& pkt) = 0;
};

} // namespace ndpext

#endif // NDPEXT_SIM_PACKET_H
