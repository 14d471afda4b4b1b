/**
 * @file
 * The unit of communication between memory-system components.
 *
 * A Packet is created at the L1-miss point and handed to the core's
 * MemSink, the one way a request enters the memory system. The sink
 * services it in atomic mode: for every leg (NoC, DRAM, extended
 * memory) it calls the model that does the work, advances the packet's
 * `ready` time to the leg's completion and charges the elapsed cycles
 * to the matching bucket of the packet's LatencyBreakdown, so the
 * requester ends up with both the completion time and the Fig.
 * 2(a)-style attribution of where those cycles went. This mirrors
 * gem5's atomic packet protocol without its ports.
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

    /** The packet's current simulated time; components advance it. */
    Cycles ready = 0;

    /** Accumulated per-bucket latency along the packet's path. */
    LatencyBreakdown bd;

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
