#include "network/endpoint.hpp"

#include <bit>

#include "sim/active_set.hpp"
#include "obs/packet_tracer.hpp"
#include "sim/log.hpp"

namespace footprint {

Endpoint::Endpoint(int node, const EndpointParams& params,
                   std::uint64_t seed, PacketPool* pool)
    : node_(node), params_(params),
      rng_(seed * 0xabcdef1234567ULL + static_cast<std::uint64_t>(node)),
      pool_(pool)
{
    FP_ASSERT(pool_ != nullptr, "endpoint needs a packet pool");
    sourceQueue_.reset(16, /*growable=*/true);
    injectVcs_.assign(static_cast<std::size_t>(params.numVcs),
                      OutVcState(params.vcBufSize));
    sinkVcs_.resize(static_cast<std::size_t>(params.numVcs));
    for (auto& buf : sinkVcs_)
        buf.reset(static_cast<std::size_t>(params.vcBufSize));
    // At most ejectionRate tails leave per cycle and drivers drain
    // every cycle; reserving a few cycles' worth up front keeps the
    // first ejection at a far-away endpoint from allocating inside the
    // steady-state measurement window (DESIGN.md §17).
    const auto burst = static_cast<std::size_t>(params.ejectionRate);
    ejected_.reserve(4 * burst + 4);
    pendingRelease_.reserve(4 * burst + 4);
}

void
Endpoint::connect(FlitChannel* to_router,
                  CreditChannel* credit_from_router,
                  FlitChannel* from_router,
                  CreditChannel* credit_to_router)
{
    toRouter_ = to_router;
    creditFromRouter_ = credit_from_router;
    fromRouter_ = from_router;
    creditToRouter_ = credit_to_router;
}

void
Endpoint::enqueue(const Packet& packet)
{
    FP_ASSERT(packet.src == node_, "packet enqueued at wrong endpoint");
    sourceQueue_.push_back(packet);
    // Traffic is generated outside the step loop, so an otherwise
    // quiescent endpoint must register itself for the next cycle.
    if (wakeSet_)
        wakeSet_->wake(wakeComp_);
}

void
Endpoint::receivePhase(std::int64_t cycle)
{
    bool in_flight = false;
    // Credits for the router's local-input VCs.
    if (creditFromRouter_) {
        while (auto c = creditFromRouter_->receive(cycle)) {
            injectVcs_[static_cast<std::size_t>(c->vc)].returnCredit();
        }
        in_flight = !creditFromRouter_->empty();
    }
    // Flits arriving at the sink.
    if (fromRouter_) {
        while (auto f = fromRouter_->receive(cycle)) {
            FP_ASSERT(f->dest == node_,
                      "misrouted flit at endpoint " << node_ << ": "
                                                    << f->toString());
            auto& buf = sinkVcs_[static_cast<std::size_t>(f->vc)];
            FP_ASSERT(static_cast<int>(buf.size()) < params_.vcBufSize,
                      "sink VC buffer overflow");
            buf.push_back(*f);
            sinkOccMask_ |= VcMask{1} << f->vc;
            ++sinkFlits_;
        }
        in_flight |= !fromRouter_->empty();
    }
    inFlight_ = in_flight;
}

bool
Endpoint::startNextPacket()
{
    if (sourceQueue_.empty())
        return false;
    // Round-robin over allocatable injection VCs so consecutive packets
    // spread across VCs.
    const int num_vcs = params_.numVcs;
    for (int i = 0; i < num_vcs; ++i) {
        const int vc = (nextVcHint_ + i) % num_vcs;
        OutVcState& state = injectVcs_[static_cast<std::size_t>(vc)];
        if (state.allocatable(params_.atomicVcAlloc)) {
            current_ = sourceQueue_.front();
            sourceQueue_.pop_front();
            currentDesc_ = pool_->allocFrom(node_, current_);
            state.allocate(current_.dest);
            currentVc_ = vc;
            cursor_ = 0;
            injecting_ = true;
            nextVcHint_ = (vc + 1) % num_vcs;
            return true;
        }
    }
    return false;
}

void
Endpoint::computePhase(std::int64_t cycle)
{
    // --- Source: inject at most one flit per cycle. ---
    if (!injecting_)
        startNextPacket();
    if (injecting_) {
        OutVcState& state =
            injectVcs_[static_cast<std::size_t>(currentVc_)];
        if (state.credits() > 0 && toRouter_) {
            Flit f = makeFlit(current_, cursor_, currentDesc_);
            f.vc = static_cast<std::int16_t>(currentVc_);
            if (cursor_ == 0)
                pool_->get(currentDesc_).injectTime = cycle;
            state.consumeCredit();
            toRouter_->send(f, cycle);
            ++flitsInjected_;
            ++cursor_;
            if (cursor_ == current_.size) {
                state.tailSent();
                injecting_ = false;
                currentVc_ = -1;
            }
        }
    }

    // --- Sink: drain up to ejectionRate flits per cycle. ---
    const int num_vcs = params_.numVcs;
    for (int e = 0; e < params_.ejectionRate; ++e) {
        if (sinkOccMask_ == 0)
            break;
        // First non-empty VC at or (cyclically) after drainHint_:
        // rotate the occupancy mask so the hint lands at bit 0, then
        // count trailing zeros — same pick as the old linear scan in
        // two instructions.
        const int picked =
            (drainHint_
             + std::countr_zero(std::rotr(
                 sinkOccMask_, static_cast<unsigned>(drainHint_))))
            & 63;
        drainHint_ = picked + 1 == num_vcs ? 0 : picked + 1;
        auto& buf = sinkVcs_[static_cast<std::size_t>(picked)];
        const Flit f = buf.front();
        buf.pop_front();
        if (buf.empty())
            sinkOccMask_ &= ~(VcMask{1} << picked);
        --sinkFlits_;
        ++flitsEjected_;
        if (creditToRouter_)
            creditToRouter_->send(Credit{picked}, cycle);
        if (f.tail) {
            if (tracer_ && tracer_->traced(f.packetId))
                tracer_->onEject(f, node_, cycle);
            const PacketDescriptor& d = pool_->get(f.desc);
            EjectedPacket p;
            p.packetId = f.packetId;
            p.src = f.src;
            p.dest = f.dest;
            p.size = d.packetSize;
            p.createTime = d.createTime;
            p.ejectTime = cycle;
            p.hops = f.hops;
            p.flowClass = d.flowClass;
            p.measured = d.measured;
            ejected_.push_back(p);
            // The tail has left the network: the packet's descriptor
            // slot can be recycled. The slot belongs to the *source*
            // endpoint's segment, so under sharded stepping it must
            // not be returned from here (see setDeferReleases).
            if (deferReleases_)
                pendingRelease_.push_back(f.desc);
            else
                pool_->release(f.desc);
        }
    }
}

std::vector<EjectedPacket>
Endpoint::drainEjected()
{
    std::vector<EjectedPacket> out;
    out.swap(ejected_);
    return out;
}

void
Endpoint::drainEjectedInto(std::vector<EjectedPacket>& out)
{
    out.insert(out.end(), ejected_.begin(), ejected_.end());
    ejected_.clear();
}

void
Endpoint::reserveSourceQueue(std::size_t packets)
{
    FP_ASSERT(sourceQueue_.empty(),
              "reserveSourceQueue on a non-empty source queue");
    if (packets > sourceQueue_.capacity())
        sourceQueue_.reset(packets, /*growable=*/true);
}

std::int64_t
Endpoint::sourceBacklogFlits() const
{
    std::int64_t flits = 0;
    for (const Packet& p : sourceQueue_)
        flits += p.size;
    if (injecting_)
        flits += current_.size - cursor_;
    return flits;
}

int
Endpoint::sinkBufferedFlits() const
{
    return sinkFlits_;
}

bool
Endpoint::hasPendingWork() const
{
    if (injecting_ || !sourceQueue_.empty() || sinkFlits_ > 0)
        return true;
    if (fromRouter_ && !fromRouter_->empty())
        return true;
    if (creditFromRouter_ && !creditFromRouter_->empty())
        return true;
    return false;
}

} // namespace footprint
