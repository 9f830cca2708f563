#include "router/router.hpp"

#include <algorithm>
#include <bit>

#include "obs/packet_tracer.hpp"
#include "sim/log.hpp"

namespace footprint {

Router::Router(const Topology& topo, int node,
               const RouterParams& params,
               const RoutingAlgorithm* routing, std::uint64_t seed,
               const StatusProvider* status)
    : topo_(&topo), node_(node), params_(params), routing_(routing),
      status_(status),
      rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(node))
{
    FP_ASSERT(params.numVcs >= 1 && params.numVcs <= 64,
              "numVcs must be in [1, 64]");
    FP_ASSERT(params.vcBufSize >= 1, "vcBufSize must be positive");
    FP_ASSERT(params.outputFifoSize >= 1,
              "outputFifoSize must be positive");
    for (auto& in : inputs_) {
        in.vcs.resize(static_cast<std::size_t>(params.numVcs));
        for (auto& vc : in.vcs)
            vc.buffer.reset(static_cast<std::size_t>(params.vcBufSize));
        in.saArbiter.resize(params.numVcs);
    }
    for (auto& out : outputs_) {
        out.saArbiter.resize(kNumPorts);
        out.fifo.reset(static_cast<std::size_t>(params.outputFifoSize));
    }
    neighborNode_.fill(-1);

    vcAll_ = maskOfFirst(params.numVcs);
    const auto total_vcs =
        static_cast<std::size_t>(kNumPorts * params.numVcs);
    outCredits_.assign(total_vcs,
                       static_cast<std::int16_t>(params.vcBufSize));
    outOwner_.assign(total_vcs, -1);
    outFullCredit_.fill(vcAll_);
    if (params.vcBufSize == 0)
        outZeroCredit_.fill(vcAll_);

    // VA scratch: fixed flat tables, never resized after this.
    waiting_.reserve(total_vcs);
    touchedOutVcs_.reserve(total_vcs);
    vaBestPri_.assign(total_vcs, -1);
    vaBestDist_.assign(total_vcs, 0);
    vaBestReq_.assign(total_vcs, 0);
    vcRrPtr_.assign(total_vcs, 0);
    bestGrant_.resize(total_vcs);
    destConvergence_.assign(static_cast<std::size_t>(topo.numNodes()),
                            0);
    destWaitTouched_.reserve(static_cast<std::size_t>(topo.numNodes()));
    publishDirty_ = (std::uint32_t{1} << kNumPorts) - 1;
}

void
Router::connectInput(int port, FlitChannel* flit_in,
                     CreditChannel* credit_out)
{
    inputs_.at(static_cast<std::size_t>(port)).flitIn = flit_in;
    inputs_.at(static_cast<std::size_t>(port)).creditOut = credit_out;
}

void
Router::connectOutput(int port, FlitChannel* flit_out,
                      CreditChannel* credit_in)
{
    outputs_.at(static_cast<std::size_t>(port)).flitOut = flit_out;
    outputs_.at(static_cast<std::size_t>(port)).creditIn = credit_in;
}

void
Router::setNeighbor(int port, int node)
{
    neighborNode_.at(static_cast<std::size_t>(port)) = node;
}

void
Router::receivePhase(std::int64_t cycle)
{
    bool in_flight = false;
    for (auto& in : inputs_) {
        if (!in.flitIn)
            continue;
        while (auto f = in.flitIn->receive(cycle)) {
            FP_ASSERT(f->vc >= 0 && f->vc < params_.numVcs,
                      "flit arrived with bad VC " << f->vc);
            InputVc& ivc = in.vcs[static_cast<std::size_t>(f->vc)];
            FP_ASSERT(static_cast<int>(ivc.occupancy())
                          < params_.vcBufSize,
                      "input VC buffer overflow (credit protocol bug)");
            if (tracer_ && f->head && tracer_->traced(f->packetId))
                tracer_->onHopArrive(*f, node_, cycle);
            ivc.buffer.push_back(*f);
            in.occMask |= VcMask{1} << f->vc;
            ++bufferedFlits_;
        }
        in_flight |= !in.flitIn->empty();
    }
    for (int op = 0; op < kNumPorts; ++op) {
        OutputPort& out = outputs_[static_cast<std::size_t>(op)];
        if (!out.creditIn)
            continue;
        while (auto c = out.creditIn->receive(cycle)) {
            FP_ASSERT(c->vc >= 0 && c->vc < params_.numVcs,
                      "credit arrived with bad VC " << c->vc);
            ovReturnCredit(op, c->vc);
            publishDirty_ |= std::uint32_t{1} << op;
        }
        in_flight |= !out.creditIn->empty();
    }
    inFlight_ = in_flight;
}

void
Router::computePhase(std::int64_t cycle)
{
    cycle_ = cycle;
    runVcAllocation();
    runSwitchAllocation();
}

void
Router::runVcAllocation()
{
    const bool atomic = routing_->atomicVcAlloc();
    const int num_vcs = params_.numVcs;
    const int total_ids = kNumPorts * num_vcs;

    // Early out: with no buffered flits there are no requests to
    // gather, and with no touched convergence counters there is
    // nothing stale to refresh either.
    if (bufferedFlits_ == 0 && destWaitTouched_.empty())
        return;

    // Refresh the per-destination convergence counters: the number of
    // input VCs holding flits to each destination. Two or more means
    // traffic to that destination is accumulating at this router —
    // either converging flows or a backlogged (blocked-downstream)
    // stream, both of which Footprint confines to footprint lanes.
    // Then gather requests from every input VC whose head flit waits
    // for an output VC. The routing function is re-evaluated every
    // cycle so adaptive decisions (and Footprint's priorities) track
    // the live occupancy state.
    for (const int dest : destWaitTouched_)
        destConvergence_[static_cast<std::size_t>(dest)] = 0;
    destWaitTouched_.clear();
    if (bufferedFlits_ == 0)
        return;
    for (int ip = 0; ip < kNumPorts; ++ip) {
        const InputPort& in = inputs_[static_cast<std::size_t>(ip)];
        for (VcMask m = in.occMask; m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            const auto dest = static_cast<std::size_t>(
                in.vcs[static_cast<std::size_t>(v)].front().dest);
            if (destConvergence_[dest]++ == 0)
                destWaitTouched_.push_back(static_cast<int>(dest));
        }
    }

    // Route each waiting input VC and scatter its requests onto the
    // allocatable output VCs they target in the same step, keeping a
    // per-output-VC running best instead of materialising requester
    // lists: the arbitration below is a strict max over (priority,
    // round-robin distance), and distances are unique per requester
    // id, so the fold picks the same winner in any order. route()
    // reads only output-VC state, the convergence counters, the
    // status board and the RNG; the scatter writes none of them and
    // commits happen strictly after, so every route() call — and every
    // RNG draw — sees the state it would see if all routing ran before
    // any scatter.
    waiting_.clear();
    for (int ip = 0; ip < kNumPorts; ++ip) {
        InputPort& in = inputs_[static_cast<std::size_t>(ip)];
        // A VC in VcAlloc state always holds its head flit, so the
        // occupancy mask covers every allocation candidate.
        for (VcMask occ = in.occMask; occ != 0; occ &= occ - 1) {
            const int v = std::countr_zero(occ);
            InputVc& ivc = in.vcs[static_cast<std::size_t>(v)];
            if (ivc.state == InputVc::State::Idle) {
                FP_ASSERT(ivc.front().head,
                          "non-head flit at front of idle VC");
                ivc.state = InputVc::State::VcAlloc;
            }
            if (ivc.state != InputVc::State::VcAlloc)
                continue;
            vaSet_.clear();
            routing_->route(*this, ivc.front(), vaSet_);
            if (vaSet_.empty())
                continue;
            const int id = ip * num_vcs + v;
            waiting_.push_back(
                VaWaiter{ip, v, vaSet_.requests().front().port});
            bestGrant_[static_cast<std::size_t>(id)] = VaGrant{};
            for (const VcRequest& r : vaSet_.requests()) {
                VcMask m = r.vcs & allocatableMaskOf(r.port, atomic);
                const auto pri = static_cast<std::int8_t>(r.priority);
                const int base = r.port * num_vcs;
                while (m != 0) {
                    const int ov = std::countr_zero(m);
                    m &= m - 1;
                    const auto idx = static_cast<std::size_t>(base + ov);
                    if (vaBestPri_[idx] < 0)
                        touchedOutVcs_.push_back(static_cast<int>(idx));
                    int dist = id - vcRrPtr_[idx];
                    if (dist < 0)
                        dist += total_ids;
                    if (pri > vaBestPri_[idx]
                        || (pri == vaBestPri_[idx]
                            && dist < vaBestDist_[idx])) {
                        vaBestPri_[idx] = pri;
                        vaBestDist_[idx] = static_cast<std::int16_t>(dist);
                        vaBestReq_[idx] = static_cast<std::int16_t>(id);
                    }
                }
            }
        }
    }
    if (waiting_.empty())
        return;

    // Output-side arbitration: each requested output VC offers itself
    // to its highest-priority requester (round-robin tie-break), then
    // each input VC accepts its best offer; declined output VCs stay
    // free this cycle. Resetting each entry's sentinel here keeps the
    // tables clean without a bulk clear.
    for (const int idx : touchedOutVcs_) {
        const auto i = static_cast<std::size_t>(idx);
        const int best_id = vaBestReq_[i];
        const auto pri = static_cast<Priority>(vaBestPri_[i]);
        vaBestPri_[i] = -1;
        const int next = best_id + 1;
        vcRrPtr_[i] =
            static_cast<std::int16_t>(next == total_ids ? 0 : next);
        VaGrant& g = bestGrant_[static_cast<std::size_t>(best_id)];
        if (g.outPort < 0 || pri > g.priority) {
            g.outPort = idx / num_vcs;
            g.outVc = idx % num_vcs;
            g.priority = pri;
        }
    }
    touchedOutVcs_.clear();

    // Commit accepted grants; record blocking events for the rest.
    for (const auto& [ip, v, first_port] : waiting_) {
        const int id = ip * num_vcs + v;
        InputPort& in = inputs_[static_cast<std::size_t>(ip)];
        InputVc& ivc = in.vcs[static_cast<std::size_t>(v)];
        const VaGrant& g = bestGrant_[static_cast<std::size_t>(id)];
        if (g.outPort >= 0) {
            ivc.state = InputVc::State::Active;
            ivc.outPort = g.outPort;
            ivc.outVc = g.outVc;
            in.activeMask |= VcMask{1} << v;
            ovAllocate(g.outPort, g.outVc, ivc.front().dest);
            publishDirty_ |= std::uint32_t{1} << g.outPort;
            ++counters_.vcAllocSuccess;
            ++counters_.vaGrantsByPriority[static_cast<std::size_t>(
                g.priority)];
            if (tracer_ && tracer_->traced(ivc.front().packetId))
                tracer_->onVaGrant(ivc.front(), node_, cycle_);
        } else {
            // Blocking event: VC allocation failed this cycle. Sample
            // the purity of blocking (footprint share of busy VCs) on
            // the packet's primary requested port. Earlier grants in
            // this loop have already changed owner and busy state, so
            // the masks are read live here.
            ++counters_.vcAllocFail;
            const VcMask occ_mask = occupiedVcMask(first_port);
            const int occ = popcount(occ_mask);
            if (occ > 0) {
                // Purity counts footprint VCs among *busy* VCs only.
                const int fp = popcount(
                    footprintVcMask(first_port, ivc.front().dest)
                    & occ_mask);
                counters_.puritySum += static_cast<double>(fp)
                    / static_cast<double>(occ);
                ++counters_.puritySamples;
            }
        }
    }
}

void
Router::runSwitchAllocation()
{
    // No buffered flits means no eligible input VC (eligibility
    // requires a non-empty buffer); the output FIFOs drain in the
    // transmit phase regardless.
    if (bufferedFlits_ == 0)
        return;

    std::array<int, kNumPorts> winner_vc{};

    for (int pass = 0; pass < params_.internalSpeedup; ++pass) {
        // Input-side: each input port nominates one eligible VC. Only
        // non-empty Active VCs (occupancy & active masks) qualify.
        std::array<std::uint64_t, kNumPorts> port_req{};
        bool any_winner = false;
        for (int ip = 0; ip < kNumPorts; ++ip) {
            InputPort& in = inputs_[static_cast<std::size_t>(ip)];
            VcMask elig = 0;
            for (VcMask m = in.occMask & in.activeMask; m != 0;
                 m &= m - 1) {
                const int v = std::countr_zero(m);
                const InputVc& ivc =
                    in.vcs[static_cast<std::size_t>(v)];
                const auto op =
                    static_cast<std::size_t>(ivc.outPort);
                if (!((outZeroCredit_[op] >> ivc.outVc) & VcMask{1})
                    && static_cast<int>(outputs_[op].fifo.size())
                        < params_.outputFifoSize) {
                    elig |= VcMask{1} << v;
                }
            }
            const int win =
                elig != 0 ? in.saArbiter.arbitrate(elig) : -1;
            winner_vc[static_cast<std::size_t>(ip)] = win;
            if (win >= 0) {
                const auto op = static_cast<std::size_t>(
                    in.vcs[static_cast<std::size_t>(win)].outPort);
                port_req[op] |= std::uint64_t{1}
                    << static_cast<unsigned>(ip);
                any_winner = true;
            }
        }
        if (!any_winner)
            break;

        // Output-side: each output port accepts one input port.
        bool moved = false;
        for (int op = 0; op < kNumPorts; ++op) {
            const std::uint64_t req =
                port_req[static_cast<std::size_t>(op)];
            if (req == 0)
                continue;
            OutputPort& out = outputs_[static_cast<std::size_t>(op)];
            const int wip = out.saArbiter.arbitrate(req);
            if (wip >= 0) {
                moveFlit(wip, winner_vc[static_cast<std::size_t>(wip)]);
                moved = true;
            }
        }
        if (!moved)
            break;
    }
}

void
Router::moveFlit(int in_port, int in_vc)
{
    InputPort& in = inputs_[static_cast<std::size_t>(in_port)];
    InputVc& ivc = in.vcs[static_cast<std::size_t>(in_vc)];
    FP_ASSERT(ivc.state == InputVc::State::Active && !ivc.empty(),
              "moving flit from inactive VC");

    Flit f = ivc.buffer.front();
    ivc.buffer.pop_front();
    if (ivc.buffer.empty())
        in.occMask &= ~(VcMask{1} << in_vc);
    --bufferedFlits_;

    const int out_port = ivc.outPort;
    const int out_vc = ivc.outVc;
    OutputPort& out = outputs_[static_cast<std::size_t>(out_port)];
    publishDirty_ |= std::uint32_t{1} << out_port;
    f.vc = static_cast<std::int16_t>(out_vc);
    ++f.hops;
    ovConsumeCredit(out_port, out_vc);
    if (f.tail) {
        ovTailSent(out_port, out_vc);
        ivc.releaseRoute();
        in.activeMask &= ~(VcMask{1} << in_vc);
    }
    out.fifo.push_back(f);
    ++fifoFlits_;
    ++counters_.flitsTraversed;
    if (tracer_ && f.head && tracer_->traced(f.packetId))
        tracer_->onSwitchTraverse(f, node_, cycle_);

    // The input-buffer slot frees: return a credit upstream.
    if (in.creditOut)
        in.creditOut->send(Credit{in_vc}, cycle_);
}

void
Router::transmitPhase(std::int64_t cycle)
{
    for (auto& out : outputs_) {
        if (!out.flitOut || out.fifo.empty())
            continue;
        out.flitOut->send(out.fifo.front(), cycle);
        out.fifo.pop_front();
        --fifoFlits_;
    }
}

bool
Router::hasPendingWork() const
{
    if (bufferedFlits_ > 0 || fifoFlits_ > 0)
        return true;
    for (const auto& in : inputs_) {
        if (in.flitIn && !in.flitIn->empty())
            return true;
    }
    for (const auto& out : outputs_) {
        if (out.creditIn && !out.creditIn->empty())
            return true;
    }
    return false;
}

VcMask
Router::idleVcMask(int port) const
{
    return idleMaskOf(port);
}

VcMask
Router::footprintVcMask(int port, int dest) const
{
    // Owner registers persist after a VC drains (they are only
    // overwritten on reallocation, as the Sec. 4.4 hardware does), so a
    // freshly drained VC remains a footprint VC for its destination
    // until another packet claims it. Contiguous int16 compare over
    // the port's slice of the owner lane; vectorisable.
    const std::int16_t* owner = outOwner_.data()
        + static_cast<std::size_t>(port * params_.numVcs);
    const auto d = static_cast<std::int16_t>(dest);
    VcMask m = 0;
    for (int v = 0; v < params_.numVcs; ++v)
        m |= static_cast<VcMask>(owner[v] == d) << v;
    return m;
}

VcMask
Router::occupiedVcMask(int port) const
{
    return occupiedMaskOf(port);
}

VcMask
Router::zeroCreditVcMask(int port) const
{
    return outZeroCredit_[static_cast<std::size_t>(port)];
}

int
Router::convergingInputs(int dest) const
{
    return destConvergence_[static_cast<std::size_t>(dest)];
}

int
Router::remoteIdleCount(int through_port, int port) const
{
    const int nbr = neighborNode_[static_cast<std::size_t>(through_port)];
    if (nbr < 0 || !status_)
        return -1;
    return status_->idleCount(nbr, port);
}

std::uint32_t
Router::takePublishMask()
{
    const std::uint32_t m = publishDirty_;
    publishDirty_ = 0;
    return m;
}

int
Router::idleVcCount(int port) const
{
    return popcount(idleMaskOf(port));
}

int
Router::outVcOwner(int port, int vc) const
{
    return ((occupiedMaskOf(port) >> vc) & VcMask{1})
        ? outOwner_[ovIdx(port, vc)]
        : -1;
}

bool
Router::outVcOccupied(int port, int vc) const
{
    return ((occupiedMaskOf(port) >> vc) & VcMask{1}) != 0;
}

int
Router::inputOccupancy(int port, int vc) const
{
    return static_cast<int>(inputs_[static_cast<std::size_t>(port)]
                                .vcs[static_cast<std::size_t>(vc)]
                                .occupancy());
}

int
Router::inputFrontDest(int port, int vc) const
{
    const InputVc& ivc = inputs_[static_cast<std::size_t>(port)]
                             .vcs[static_cast<std::size_t>(vc)];
    return ivc.empty() ? -1 : ivc.front().dest;
}

bool
Router::inputHoldsDest(int port, int vc, int dest) const
{
    const InputVc& ivc = inputs_[static_cast<std::size_t>(port)]
                             .vcs[static_cast<std::size_t>(vc)];
    for (const Flit& f : ivc.buffer) {
        if (f.dest == dest)
            return true;
    }
    return false;
}

int
Router::totalBufferedFlits() const
{
    return inputBufferedFlits() + outputFifoFlits();
}

int
Router::inputBufferedFlits() const
{
    return bufferedFlits_;
}

int
Router::totalOutputCredits() const
{
    int total = 0;
    for (const std::int16_t c : outCredits_)
        total += c;
    return total;
}

int
Router::occupiedOutVcs() const
{
    int total = 0;
    for (int port = 0; port < kNumPorts; ++port)
        total += popcount(occupiedMaskOf(port));
    return total;
}

int
Router::occupiedOutVcsBelow(int vc_limit) const
{
    if (vc_limit <= 0)
        return 0;
    const VcMask low = vc_limit >= params_.numVcs
        ? ~VcMask{0}
        : static_cast<VcMask>((VcMask{1} << vc_limit) - 1);
    int total = 0;
    for (int port = 0; port < kNumPorts; ++port)
        total += popcount(
            static_cast<VcMask>(occupiedMaskOf(port) & low));
    return total;
}

int
Router::outputFifoFlits() const
{
    return fifoFlits_;
}

int
Router::outVcCredits(int port, int vc) const
{
    return outCredits_[ovIdx(port, vc)];
}

bool
Router::outVcBusy(int port, int vc) const
{
    return ((outBusy_[static_cast<std::size_t>(port)] >> vc) & VcMask{1})
        != 0;
}

const InputVc&
Router::inputVc(int port, int vc) const
{
    return inputs_[static_cast<std::size_t>(port)]
        .vcs[static_cast<std::size_t>(vc)];
}

const RingBuffer<Flit>&
Router::outputFifo(int port) const
{
    return outputs_[static_cast<std::size_t>(port)].fifo;
}

int
Router::outputFifoFlitsForVc(int port, int vc) const
{
    int total = 0;
    for (const Flit& f : outputs_[static_cast<std::size_t>(port)].fifo) {
        if (f.vc == vc)
            ++total;
    }
    return total;
}

void
Router::debugLeakCredit(int port, int vc)
{
    ovConsumeCredit(port, vc);
    publishDirty_ |= std::uint32_t{1} << port;
}

} // namespace footprint
