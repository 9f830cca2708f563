/**
 * @file
 * Trace-driven traffic: a minimal, Netrace-like packet trace format
 * with a writer and a streaming reader.
 *
 * Format: '#'-prefixed comment lines, then one event per line:
 *   <cycle> <src> <dest> <size>
 * Events must be sorted by cycle and carry packets of at least one
 * flit; the reader enforces both, and node ids against the network
 * size when it is given one.
 */

#ifndef FOOTPRINT_TRAFFIC_TRACE_HPP
#define FOOTPRINT_TRAFFIC_TRACE_HPP

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace footprint {

/** One packet-injection event in a trace. */
struct TraceEvent
{
    std::int64_t cycle = 0;
    int src = -1;
    int dest = -1;
    int size = 1;

    bool operator==(const TraceEvent&) const = default;
};

/** Write a trace file; events must be appended in cycle order. */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string& path);

    /** Add a free-form header comment line. */
    void comment(const std::string& text);

    void append(const TraceEvent& event);

    std::uint64_t eventCount() const { return count_; }

  private:
    std::ofstream out_;
    std::int64_t lastCycle_;
    std::uint64_t count_;
};

/** Stream trace events from a file in cycle order. */
class TraceReader
{
  public:
    /**
     * @param num_nodes network size: src/dest outside [0, num_nodes)
     *        are fatal. 0 skips the node-range check.
     */
    explicit TraceReader(const std::string& path, int num_nodes = 0);

    /** @return next event, or nullopt at end of trace. */
    std::optional<TraceEvent> next();

    /** Read every remaining event (convenience for tests/benches). */
    std::vector<TraceEvent> readAll();

  private:
    std::ifstream in_;
    std::string path_;
    std::string line_;  ///< reused line buffer
    int numNodes_;
    std::int64_t lastCycle_;
    std::uint64_t lineNo_;
};

} // namespace footprint

#endif // FOOTPRINT_TRAFFIC_TRACE_HPP
