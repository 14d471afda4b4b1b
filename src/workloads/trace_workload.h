/**
 * @file
 * Trace-file workload: run the simulator on user-provided access traces
 * instead of the built-in generators (the adoption path for downstream
 * users with their own applications).
 *
 * Format (text, '#' comments):
 *
 *   stream <name> <affine|indirect> <base-hex> <size> <elemSize> <ro|rw>
 *   ...one line per stream, then...
 *   a <core> <sid> <elem> <r|w> [computeCycles]
 *
 * Numbers are decimal counts (common/parse.h) that must fit their field;
 * the base may also be `0x` hex. Access lines are replayed in file order
 * per core. Example:
 *
 *   # two streams, three accesses
 *   stream edges affine 0x100000 4096 4 ro
 *   stream ranks indirect 0x200000 8192 8 rw
 *   a 0 0 12 r 2
 *   a 1 1 7 w
 *   a 0 1 3 r
 */

#ifndef NDPEXT_WORKLOADS_TRACE_WORKLOAD_H
#define NDPEXT_WORKLOADS_TRACE_WORKLOAD_H

#include <istream>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace ndpext {

class TraceWorkload : public Workload
{
  public:
    /** Parse a trace from a stream; fatal() on malformed input. */
    static std::unique_ptr<TraceWorkload> parse(std::istream& in,
                                                std::uint32_t num_cores);

    /**
     * Recoverable variant: on malformed input, returns nullptr and sets
     * *error to "<source>:<line>: <reason>" instead of aborting.
     * `source` names the input in diagnostics (file name, "<stdin>", ...).
     */
    static std::unique_ptr<TraceWorkload> parse(std::istream& in,
                                                std::uint32_t num_cores,
                                                const std::string& source,
                                                std::string* error);

    /** Parse a trace file from disk; fatal() on malformed input. */
    static std::unique_ptr<TraceWorkload>
    parseFile(const std::string& path, std::uint32_t num_cores);

    /**
     * Recoverable variant: returns nullptr and sets *error (with file
     * name and line number) on unreadable or malformed input.
     */
    static std::unique_ptr<TraceWorkload>
    parseFile(const std::string& path, std::uint32_t num_cores,
              std::string* error);

    std::string name() const override { return "trace"; }
    std::unique_ptr<AccessGenerator> makeGenerator(CoreId core) const
        override;

    /** Accesses recorded for one core. */
    std::size_t
    accessCount(CoreId core) const
    {
        return perCore_[core].size();
    }

    struct TraceAccess
    {
        StreamId sid;
        ElemId elem;
        bool isWrite;
        std::uint32_t computeCycles;
    };

    /** Recorded access sequence of one core. */
    const std::vector<TraceAccess>&
    coreTrace(CoreId core) const
    {
        return perCore_[core];
    }

  protected:
    void doPrepare() override;

  private:
    std::vector<std::vector<TraceAccess>> perCore_;
};

} // namespace ndpext

#endif // NDPEXT_WORKLOADS_TRACE_WORKLOAD_H
