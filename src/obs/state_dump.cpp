#include "obs/state_dump.hpp"

#include <fstream>

#include "network/network.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "sim/log.hpp"

namespace footprint {

namespace {

void
writeFlit(std::ostream& os, const Flit& f, const PacketPool& pool)
{
    os << "{\"packet\":" << f.packetId << ",\"src\":" << f.src
       << ",\"dest\":" << f.dest << ",\"vc\":" << f.vc
       << ",\"head\":" << (f.head ? "true" : "false")
       << ",\"tail\":" << (f.tail ? "true" : "false")
       << ",\"hops\":" << f.hops
       << ",\"create\":" << pool.get(f.desc).createTime << '}';
}

template <typename Range>
void
writeFlitArray(std::ostream& os, const Range& flits,
               const PacketPool& pool)
{
    os << '[';
    bool first = true;
    for (const Flit& f : flits) {
        if (!first)
            os << ',';
        first = false;
        writeFlit(os, f, pool);
    }
    os << ']';
}

void
writeRouter(std::ostream& os, const Network& net, int node)
{
    const Router& r = net.router(node);
    const int num_vcs = net.routerParams().numVcs;

    os << "{\"node\":" << node << ",\"inputs\":[";
    for (int port = 0; port < kNumPorts; ++port) {
        if (port > 0)
            os << ',';
        os << "{\"port\":\"" << dirName(dirOf(port))
           << "\",\"vcs\":[";
        for (int vc = 0; vc < num_vcs; ++vc) {
            const InputVc& ivc = r.inputVc(port, vc);
            if (vc > 0)
                os << ',';
            os << "{\"vc\":" << vc << ",\"state\":\""
               << inputVcStateName(ivc.state) << '"';
            if (ivc.state == InputVc::State::Active) {
                os << ",\"out_port\":" << ivc.outPort
                   << ",\"out_vc\":" << ivc.outVc;
            }
            if (!ivc.empty()) {
                os << ",\"flits\":";
                writeFlitArray(os, ivc.buffer, net.packetPool());
            }
            os << '}';
        }
        os << "]}";
    }
    os << "],\"outputs\":[";
    for (int port = 0; port < kNumPorts; ++port) {
        if (port > 0)
            os << ',';
        os << "{\"port\":\"" << dirName(dirOf(port))
           << "\",\"vcs\":[";
        for (int vc = 0; vc < num_vcs; ++vc) {
            if (vc > 0)
                os << ',';
            os << "{\"vc\":" << vc << ",\"credits\":"
               << r.outVcCredits(port, vc) << ",\"busy\":"
               << (r.outVcBusy(port, vc) ? "true" : "false")
               << ",\"owner\":" << r.outVcOwner(port, vc) << '}';
        }
        os << ']';
        if (!r.outputFifo(port).empty()) {
            os << ",\"fifo\":";
            writeFlitArray(os, r.outputFifo(port), net.packetPool());
        }
        os << '}';
    }
    os << "]}";
}

void
writeEndpoint(std::ostream& os, const Network& net, int node)
{
    const Endpoint& ep = net.endpoint(node);
    const int num_vcs = net.routerParams().numVcs;

    os << "{\"node\":" << node << ",\"source_backlog\":"
       << ep.sourceBacklogFlits() << ",\"injecting\":"
       << (ep.injecting() ? "true" : "false");
    if (ep.injecting())
        os << ",\"inject_vc\":" << ep.currentInjectVc();
    os << ",\"inject_vcs\":[";
    for (int vc = 0; vc < num_vcs; ++vc) {
        if (vc > 0)
            os << ',';
        os << "{\"vc\":" << vc << ",\"credits\":"
           << ep.injectVcCredits(vc) << ",\"busy\":"
           << (ep.injectVcBusy(vc) ? "true" : "false") << '}';
    }
    os << "],\"sink_occ\":[";
    for (int vc = 0; vc < num_vcs; ++vc) {
        if (vc > 0)
            os << ',';
        os << ep.sinkVcOccupancy(vc);
    }
    os << "]}";
}

const char*
linkKindName(Network::LinkRecord::Kind kind)
{
    switch (kind) {
    case Network::LinkRecord::Kind::RouterToRouter: return "link";
    case Network::LinkRecord::Kind::RouterToEndpoint: return "eject";
    case Network::LinkRecord::Kind::EndpointToRouter: return "inject";
    }
    return "?";
}

/** Channels carrying payloads; quiet links are omitted for brevity. */
void
writeChannels(std::ostream& os, const Network& net)
{
    os << '[';
    bool first = true;
    for (const Network::LinkRecord& link : net.links()) {
        if (link.flit->empty() && link.credit->empty())
            continue;
        if (!first)
            os << ',';
        first = false;
        os << "{\"kind\":\"" << linkKindName(link.kind)
           << "\",\"src\":" << link.srcNode << ",\"src_port\":"
           << link.srcPort << ",\"dst\":" << link.dstNode
           << ",\"dst_port\":" << link.dstPort;
        if (!link.flit->empty()) {
            os << ",\"flits\":[";
            bool f_first = true;
            link.flit->forEachInFlight([&](const Flit& f) {
                if (!f_first)
                    os << ',';
                f_first = false;
                writeFlit(os, f, net.packetPool());
            });
            os << ']';
        }
        if (!link.credit->empty()) {
            os << ",\"credits\":[";
            bool c_first = true;
            link.credit->forEachInFlight([&](const Credit& c) {
                if (!c_first)
                    os << ',';
                c_first = false;
                os << c.vc;
            });
            os << ']';
        }
        os << '}';
    }
    os << ']';
}

} // namespace

void
writeStateDump(std::ostream& os, const Network& net,
               const RunMetadata& meta, const StateDumpContext& ctx)
{
    os << "{\"schema\":\"footprint.state_dump/1\",\"cycle\":"
       << ctx.cycle << ",\"reason\":\"" << jsonEscape(ctx.reason)
       << "\",\"meta\":" << meta.toJson();

    os << ",\"totals\":{\"injected\":" << net.totalFlitsInjected()
       << ",\"ejected\":" << net.totalFlitsEjected()
       << ",\"resident\":" << net.totalFlitsInFlight() << '}';

    if (ctx.stall) {
        os << ",\"stall\":{\"class\":\""
           << Watchdog::stallClassName(ctx.stall->stallClass)
           << "\",\"blocked_vcs\":" << ctx.stall->blockedVcs
           << ",\"detail\":\"" << jsonEscape(ctx.stall->detail)
           << "\"}";
    }

    if (ctx.violations && !ctx.violations->empty()) {
        os << ",\"violations\":[";
        for (std::size_t i = 0; i < ctx.violations->size(); ++i) {
            const InvariantAuditor::Violation& v =
                (*ctx.violations)[i];
            if (i > 0)
                os << ',';
            os << "{\"check\":\"" << jsonEscape(v.check)
               << "\",\"node\":" << v.node << ",\"cycle\":" << v.cycle
               << ",\"detail\":\"" << jsonEscape(v.detail) << "\"}";
        }
        os << ']';
    }

    if (ctx.events && !ctx.events->empty()) {
        os << ",\"watchdog_events\":[";
        for (std::size_t i = 0; i < ctx.events->size(); ++i) {
            const Watchdog::Event& e = (*ctx.events)[i];
            if (i > 0)
                os << ',';
            os << "{\"kind\":\"" << jsonEscape(e.kind)
               << "\",\"cycle\":" << e.cycle << ",\"detail\":\""
               << jsonEscape(e.detail) << "\"}";
        }
        os << ']';
    }

    const int n = net.mesh().numNodes();
    os << ",\"routers\":[";
    for (int node = 0; node < n; ++node) {
        if (node > 0)
            os << ',';
        writeRouter(os, net, node);
    }
    os << "],\"endpoints\":[";
    for (int node = 0; node < n; ++node) {
        if (node > 0)
            os << ',';
        writeEndpoint(os, net, node);
    }
    os << "],\"channels\":";
    writeChannels(os, net);
    os << "}\n";
}

bool
dumpStateToFile(const std::string& path, const Network& net,
                const RunMetadata& meta, const StateDumpContext& ctx)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open state dump file: " + path);
        return false;
    }
    writeStateDump(os, net, meta, ctx);
    return os.good();
}

} // namespace footprint
