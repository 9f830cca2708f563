/**
 * @file
 * Packet lifecycle tracer: records inject, per-hop VA/SA/ST
 * timestamps, and eject for a configurable prefix of packets, derives
 * per-hop VA/SA stall breakdowns, and writes one JSONL record per
 * packet as it completes.
 *
 * The tracer is wired into Router and Endpoint as a raw pointer that
 * is nullptr when tracing is disabled, so the hot-path cost of the
 * compiled-in hooks is a single predictable branch.
 */

#ifndef FOOTPRINT_OBS_PACKET_TRACER_HPP
#define FOOTPRINT_OBS_PACKET_TRACER_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "router/flit.hpp"
#include "router/packet_pool.hpp"

namespace footprint {

class ChromeTraceWriter;
struct RunMetadata;

/**
 * Records the lifecycle of the first N packets (by packet id, which
 * traffic sources assign sequentially from 1) and streams completed
 * records to a JSONL sink, a Chrome trace-event timeline, or both.
 *
 * A JSONL sink opens with the header line
 * {"schema":"footprint.packet_trace/1","meta":{...}}; then one JSON
 * object per packet:
 *   {"packet":id,"src":s,"dest":d,"size":flits,"class":"bg|hotspot",
 *    "create":c,"inject":i,"eject":e,"latency":e-c,
 *    "hops":[{"node":n,"arrive":a,"va":v,"st":t,
 *             "va_stall":v-a,"sa_stall":t-v}, ...]}
 * Packets still in flight when the run ends are flushed with
 * "eject":-1 and "complete":false.
 */
class PacketTracer
{
  public:
    /**
     * Trace packets with id in [1, max_packets] into borrowed @p os,
     * which gets the header line (schema + @p meta) at once.
     */
    PacketTracer(std::ostream& os, std::uint64_t max_packets,
                 const RunMetadata& meta);

    /** Trace into a file; fatal() if @p path cannot be opened. */
    PacketTracer(const std::string& path, std::uint64_t max_packets,
                 const RunMetadata& meta);

    /**
     * Sink-less tracer: records lifecycles without writing JSONL
     * (chrome-trace-only runs and watchdog history lookups).
     */
    explicit PacketTracer(std::uint64_t max_packets);

    /**
     * Also re-emit completed lifecycles onto @p writer (borrowed;
     * nullptr detaches). One slice per hop on a per-packet track.
     */
    void setChromeTrace(ChromeTraceWriter* writer)
    {
        chrome_ = writer;
    }

    /**
     * Attach the pool holding per-packet constants (size, timestamps,
     * flow class) that flits reference by Flit::desc; without a pool
     * those record fields keep null-descriptor defaults. Network
     * wires this automatically in attachTracer().
     */
    void setPool(const PacketPool* pool) { pool_ = pool; }

    /** Cheap hot-path filter: is @p packet_id being traced? */
    bool
    traced(std::uint64_t packet_id) const
    {
        return packet_id >= 1 && packet_id <= maxPackets_;
    }

    /** Head flit entered a router's input buffer. */
    void onHopArrive(const Flit& flit, int node, std::int64_t cycle);

    /** Head flit won VC allocation at @p node. */
    void onVaGrant(const Flit& flit, int node, std::int64_t cycle);

    /** Head flit won switch allocation and traversed the crossbar. */
    void onSwitchTraverse(const Flit& flit, int node,
                          std::int64_t cycle);

    /** Tail flit drained at the destination endpoint's sink. */
    void onEject(const Flit& flit, int node, std::int64_t cycle);

    /** Write out records of packets that never completed. */
    void flush();

    /**
     * Hop-by-hop history of an in-flight traced packet, one
     * "node@arrive(va=..,st=..)" entry per hop — the watchdog's
     * livelock forensics. Empty when the packet is unknown.
     */
    std::string describe(std::uint64_t packet_id) const;

    std::uint64_t packetsCompleted() const { return completed_; }
    std::uint64_t packetsInFlight() const { return records_.size(); }

  private:
    struct HopRecord
    {
        int node = -1;
        std::int64_t arrive = -1;
        std::int64_t va = -1;
        std::int64_t st = -1;
    };

    struct PacketRecord
    {
        int src = -1;
        int dest = -1;
        int size = 1;
        FlowClass flowClass = FlowClass::Background;
        std::int64_t create = 0;
        std::int64_t inject = -1;
        std::vector<HopRecord> hops;
    };

    PacketRecord& record(const Flit& flit);
    void writeRecord(std::uint64_t id, const PacketRecord& rec,
                     std::int64_t eject);

    std::unique_ptr<std::ofstream> owned_;
    std::ostream* os_;  ///< nullptr for sink-less tracers
    std::uint64_t maxPackets_;
    std::uint64_t completed_ = 0;
    std::unordered_map<std::uint64_t, PacketRecord> records_;
    ChromeTraceWriter* chrome_ = nullptr;
    const PacketPool* pool_ = nullptr;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_PACKET_TRACER_HPP
