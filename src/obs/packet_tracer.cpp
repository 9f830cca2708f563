#include "obs/packet_tracer.hpp"

#include <algorithm>
#include <sstream>

#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "obs/trace_event.hpp"

namespace footprint {

namespace {

void
writeHeader(std::ostream& os, const RunMetadata& meta)
{
    os << "{\"schema\":\"footprint.packet_trace/1\",\"meta\":"
       << meta.toJson() << "}\n";
}

} // namespace

PacketTracer::PacketTracer(std::ostream& os, std::uint64_t max_packets,
                           const RunMetadata& meta)
    : os_(&os), maxPackets_(max_packets)
{
    writeHeader(os, meta);
}

PacketTracer::PacketTracer(const std::string& path,
                           std::uint64_t max_packets,
                           const RunMetadata& meta)
    : owned_(openArtifact(path, "packet trace")), os_(owned_.get()),
      maxPackets_(max_packets)
{
    writeHeader(*owned_, meta);
}

PacketTracer::PacketTracer(std::uint64_t max_packets)
    : os_(nullptr), maxPackets_(max_packets)
{}

PacketTracer::PacketRecord&
PacketTracer::record(const Flit& flit)
{
    auto [it, inserted] = records_.try_emplace(flit.packetId);
    if (inserted) {
        PacketRecord& rec = it->second;
        rec.src = flit.src;
        rec.dest = flit.dest;
        if (pool_) {
            const PacketDescriptor& d = pool_->get(flit.desc);
            rec.size = d.packetSize;
            rec.flowClass = d.flowClass;
            rec.create = d.createTime;
            rec.inject = d.injectTime;
        }
    }
    return it->second;
}

void
PacketTracer::onHopArrive(const Flit& flit, int node,
                          std::int64_t cycle)
{
    PacketRecord& rec = record(flit);
    if (rec.inject < 0 && pool_)
        rec.inject = pool_->get(flit.desc).injectTime;
    HopRecord hop;
    hop.node = node;
    hop.arrive = cycle;
    rec.hops.push_back(hop);
}

void
PacketTracer::onVaGrant(const Flit& flit, int node, std::int64_t cycle)
{
    PacketRecord& rec = record(flit);
    for (auto it = rec.hops.rbegin(); it != rec.hops.rend(); ++it) {
        if (it->node == node) {
            it->va = cycle;
            return;
        }
    }
    // VA observed without a recorded arrival (tracing attached
    // mid-flight): synthesise the hop.
    HopRecord hop;
    hop.node = node;
    hop.va = cycle;
    rec.hops.push_back(hop);
}

void
PacketTracer::onSwitchTraverse(const Flit& flit, int node,
                               std::int64_t cycle)
{
    PacketRecord& rec = record(flit);
    for (auto it = rec.hops.rbegin(); it != rec.hops.rend(); ++it) {
        if (it->node == node) {
            if (it->st < 0)
                it->st = cycle;
            return;
        }
    }
    HopRecord hop;
    hop.node = node;
    hop.st = cycle;
    rec.hops.push_back(hop);
}

void
PacketTracer::onEject(const Flit& flit, int node, std::int64_t cycle)
{
    (void)node;
    auto it = records_.find(flit.packetId);
    if (it == records_.end())
        return;
    writeRecord(flit.packetId, it->second, cycle);
    ++completed_;
    records_.erase(it);
}

void
PacketTracer::writeRecord(std::uint64_t id, const PacketRecord& rec,
                          std::int64_t eject)
{
    if (chrome_) {
        // One track (tid) per packet under the "packets" process; the
        // whole lifetime as an enclosing slice, one nested slice per
        // hop. A hop's slice spans arrival to switch traversal.
        const auto tid = static_cast<std::int64_t>(id);
        std::ostringstream name;
        name << "pkt " << id << " n" << rec.src << "->n" << rec.dest;
        chrome_->threadName(1, tid, name.str());
        if (rec.inject >= 0 && eject >= rec.inject) {
            std::ostringstream args;
            args << "\"src\":" << rec.src << ",\"dest\":" << rec.dest
                 << ",\"size\":" << rec.size << ",\"hops\":"
                 << rec.hops.size();
            chrome_->completeEvent("pkt", 1, tid, rec.inject,
                                   eject - rec.inject, args.str());
        }
        for (const HopRecord& h : rec.hops) {
            const std::int64_t start = h.arrive >= 0 ? h.arrive : h.st;
            if (start < 0)
                continue;
            const std::int64_t end = h.st >= start ? h.st + 1
                                                   : start + 1;
            std::ostringstream args;
            if (h.arrive >= 0 && h.va >= 0)
                args << "\"va_stall\":" << h.va - h.arrive;
            if (h.va >= 0 && h.st >= 0) {
                if (args.tellp() > 0)
                    args << ',';
                args << "\"sa_stall\":" << h.st - h.va;
            }
            std::string track = "n";
            track += std::to_string(h.node);
            chrome_->completeEvent(track, 1, tid, start, end - start,
                                   args.str());
        }
    }

    if (!os_)
        return;
    std::ostream& os = *os_;
    os << "{\"packet\":" << id << ",\"src\":" << rec.src
       << ",\"dest\":" << rec.dest << ",\"size\":" << rec.size
       << ",\"class\":\""
       << (rec.flowClass == FlowClass::Hotspot ? "hotspot" : "bg")
       << "\",\"create\":" << rec.create << ",\"inject\":" << rec.inject
       << ",\"eject\":" << eject;
    if (eject >= 0)
        os << ",\"latency\":" << eject - rec.create;
    else
        os << ",\"complete\":false";
    os << ",\"hops\":[";
    for (std::size_t i = 0; i < rec.hops.size(); ++i) {
        const HopRecord& h = rec.hops[i];
        if (i > 0)
            os << ',';
        os << "{\"node\":" << h.node << ",\"arrive\":" << h.arrive
           << ",\"va\":" << h.va << ",\"st\":" << h.st;
        if (h.arrive >= 0 && h.va >= 0)
            os << ",\"va_stall\":" << h.va - h.arrive;
        if (h.va >= 0 && h.st >= 0)
            os << ",\"sa_stall\":" << h.st - h.va;
        os << '}';
    }
    os << "]}\n";
}

void
PacketTracer::flush()
{
    // Emit still-in-flight packets in id order so the output is
    // deterministic across unordered_map implementations.
    std::vector<std::uint64_t> ids;
    ids.reserve(records_.size());
    for (const auto& [id, rec] : records_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const std::uint64_t id : ids)
        writeRecord(id, records_.at(id), -1);
    records_.clear();
    if (os_)
        os_->flush();
}

std::string
PacketTracer::describe(std::uint64_t packet_id) const
{
    const auto it = records_.find(packet_id);
    if (it == records_.end())
        return "";
    const PacketRecord& rec = it->second;
    std::ostringstream os;
    os << "injected@" << rec.inject;
    for (const HopRecord& h : rec.hops) {
        os << " -> n" << h.node << '@' << h.arrive;
        if (h.va >= 0 || h.st >= 0) {
            os << "(va=" << h.va << ",st=" << h.st << ')';
        }
    }
    return os.str();
}

} // namespace footprint
