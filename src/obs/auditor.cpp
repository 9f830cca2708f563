#include "obs/auditor.hpp"

#include <sstream>

#include "network/network.hpp"
#include "routing/routing.hpp"

namespace footprint {

namespace {

/** Count in-flight payloads on @p pipe destined for VC @p vc. */
template <typename PipeT>
int
inFlightForVc(const PipeT& pipe, int vc)
{
    int count = 0;
    pipe.forEachInFlight([&](const auto& item) {
        if (item.vc == vc)
            ++count;
    });
    return count;
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

} // namespace

std::string
InvariantAuditor::Violation::toString() const
{
    std::ostringstream os;
    os << "[cycle " << cycle << "] " << check;
    if (node >= 0)
        os << " @ node " << node;
    os << ": " << detail;
    return os.str();
}

InvariantAuditor::InvariantAuditor(const Network& net,
                                   const Params& params)
    : net_(&net), params_(params)
{}

std::size_t
InvariantAuditor::auditNow(std::int64_t cycle)
{
    nextDue_ = cycle + (params_.interval > 0 ? params_.interval : 1);
    const std::uint64_t before = violationCount_;
    ++auditsRun_;

    checkFlitConservation(cycle);
    checkCreditConservation(cycle);
    checkVcLegality(cycle);
    checkEscapeLegality(cycle);

    return static_cast<std::size_t>(violationCount_ - before);
}

void
InvariantAuditor::report(const std::string& check, int node,
                         std::string detail, std::int64_t cycle)
{
    ++violationCount_;
    if (violations_.size() < params_.maxRecorded) {
        violations_.push_back(
            Violation{check, node, std::move(detail), cycle});
    }
}

void
InvariantAuditor::checkFlitConservation(std::int64_t cycle)
{
    const auto injected =
        static_cast<std::int64_t>(net_->totalFlitsInjected());
    const auto ejected =
        static_cast<std::int64_t>(net_->totalFlitsEjected());
    const std::int64_t resident = net_->totalFlitsInFlight();
    if (injected - ejected == resident)
        return;
    std::ostringstream os;
    os << "injected " << injected << " - ejected " << ejected << " = "
       << injected - ejected << " but " << resident
       << " flits are resident in the network";
    report("flit_conservation", -1, os.str(), cycle);
}

void
InvariantAuditor::checkCreditConservation(std::int64_t cycle)
{
    using Kind = Network::LinkRecord::Kind;
    const int num_vcs = net_->routerParams().numVcs;
    const int buf_size = net_->routerParams().vcBufSize;

    for (const Network::LinkRecord& link : net_->links()) {
        for (int vc = 0; vc < num_vcs; ++vc) {
            // Upstream view: credits held plus flits already switched
            // into the output FIFO (credits are consumed at switch
            // traversal, before the flit reaches the wire).
            int upstream = 0;
            switch (link.kind) {
            case Kind::RouterToRouter:
            case Kind::RouterToEndpoint:
                upstream = net_->router(link.srcNode)
                               .outVcCredits(link.srcPort, vc)
                    + net_->router(link.srcNode)
                          .outputFifoFlitsForVc(link.srcPort, vc);
                break;
            case Kind::EndpointToRouter:
                upstream =
                    net_->endpoint(link.srcNode).injectVcCredits(vc);
                break;
            }

            int downstream = 0;
            switch (link.kind) {
            case Kind::RouterToRouter:
            case Kind::EndpointToRouter:
                downstream = net_->router(link.dstNode)
                                 .inputOccupancy(link.dstPort, vc);
                break;
            case Kind::RouterToEndpoint:
                downstream =
                    net_->endpoint(link.dstNode).sinkVcOccupancy(vc);
                break;
            }

            const int flits_wire = inFlightForVc(*link.flit, vc);
            const int credits_wire = inFlightForVc(*link.credit, vc);
            const int total =
                upstream + flits_wire + downstream + credits_wire;
            if (total == buf_size)
                continue;

            std::ostringstream os;
            os << linkKindName(link.kind) << ' ' << link.srcNode << ':'
               << link.srcPort << " -> " << link.dstNode << ':'
               << link.dstPort << " vc " << vc << ": credits+fifo "
               << upstream << " + flits-in-flight " << flits_wire
               << " + downstream occ " << downstream
               << " + credits-in-flight " << credits_wire << " = "
               << total << ", expected " << buf_size;
            report("credit_conservation", link.srcNode, os.str(),
                   cycle);
        }
    }
}

void
InvariantAuditor::checkVcLegality(std::int64_t cycle)
{
    const int num_vcs = net_->routerParams().numVcs;
    const int buf_size = net_->routerParams().vcBufSize;
    const bool atomic = net_->routing().atomicVcAlloc();
    const int n = net_->mesh().numNodes();

    std::vector<int> active_count(
        static_cast<std::size_t>(kNumPorts * num_vcs));

    for (int node = 0; node < n; ++node) {
        const Router& r = net_->router(node);
        active_count.assign(active_count.size(), 0);

        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = 0; vc < num_vcs; ++vc) {
                const InputVc& ivc = r.inputVc(port, vc);
                std::ostringstream where;
                where << "input (" << port << ", " << vc << ") ["
                      << inputVcStateName(ivc.state) << ']';

                if (ivc.state != InputVc::State::Active) {
                    // A packet not yet granted a route must expose its
                    // head flit first.
                    if (!ivc.empty() && !ivc.front().head) {
                        report("vc_legality", node,
                               where.str()
                                   + ": non-head flit at front",
                               cycle);
                    }
                } else {
                    if (ivc.outPort < 0 || ivc.outPort >= kNumPorts
                        || ivc.outVc < 0 || ivc.outVc >= num_vcs) {
                        std::ostringstream os;
                        os << where.str() << ": bad grant ("
                           << ivc.outPort << ", " << ivc.outVc << ')';
                        report("vc_legality", node, os.str(), cycle);
                    } else {
                        ++active_count[static_cast<std::size_t>(
                            ivc.outPort * num_vcs + ivc.outVc)];
                        if (!r.outVcBusy(ivc.outPort, ivc.outVc)) {
                            std::ostringstream os;
                            os << where.str()
                               << ": granted output VC ("
                               << ivc.outPort << ", " << ivc.outVc
                               << ") is not busy";
                            report("vc_legality", node, os.str(),
                                   cycle);
                        } else if (!ivc.empty()
                                   && r.outVcOwner(ivc.outPort,
                                                   ivc.outVc)
                                       != ivc.front().dest) {
                            std::ostringstream os;
                            os << where.str() << ": output VC ("
                               << ivc.outPort << ", " << ivc.outVc
                               << ") owner "
                               << r.outVcOwner(ivc.outPort, ivc.outVc)
                               << " != flit dest "
                               << ivc.front().dest;
                            report("vc_legality", node, os.str(),
                                   cycle);
                        }
                    }
                }

                if (atomic) {
                    // Atomic reallocation admits at most one packet
                    // per input buffer: one head flit, at the front.
                    int heads = 0;
                    bool mid_head = false;
                    bool first = true;
                    for (const Flit& f : ivc.buffer) {
                        if (f.head) {
                            ++heads;
                            mid_head = mid_head || !first;
                        }
                        first = false;
                    }
                    if (heads > 1 || mid_head) {
                        std::ostringstream os;
                        os << where.str() << ": " << heads
                           << " head flits (atomic reallocation)";
                        report("vc_legality", node, os.str(), cycle);
                    }
                }
            }
        }

        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = 0; vc < num_vcs; ++vc) {
                const int credits = r.outVcCredits(port, vc);
                if (credits < 0 || credits > buf_size) {
                    std::ostringstream os;
                    os << "output (" << port << ", " << vc
                       << "): credits " << credits
                       << " outside [0, " << buf_size << ']';
                    report("vc_legality", node, os.str(), cycle);
                }
                const int holders =
                    active_count[static_cast<std::size_t>(
                        port * num_vcs + vc)];
                const int expected = r.outVcBusy(port, vc) ? 1 : 0;
                if (holders != expected) {
                    std::ostringstream os;
                    os << "output (" << port << ", " << vc << "): "
                       << holders << " Active input VCs hold it, "
                       << "expected " << expected;
                    report("vc_legality", node, os.str(), cycle);
                }
            }
        }
    }
}

void
InvariantAuditor::checkEscapeLegality(std::int64_t cycle)
{
    if (net_->routing().numEscapeVcs() < 1)
        return;
    const Mesh& mesh = net_->mesh();
    const int n = mesh.numNodes();

    for (int node = 0; node < n; ++node) {
        const Router& r = net_->router(node);
        for (int port = 0; port < kNumPorts; ++port) {
            if (!r.outVcOccupied(port, 0))
                continue;
            const int dest = r.outVcOwner(port, 0);
            if (dest < 0)
                continue;
            const int expected = portOf(dorDir(mesh, node, dest));
            if (port == expected)
                continue;
            std::ostringstream os;
            os << "escape VC 0 on port " << port << " owned by dest "
               << dest << ", but dimension order requires port "
               << expected;
            report("escape_legality", node, os.str(), cycle);
        }
    }
}

} // namespace footprint
