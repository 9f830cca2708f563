#include "network/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "obs/packet_tracer.hpp"
#include "obs/profiler.hpp"
#include "sim/log.hpp"

namespace footprint {

Network::Network(const SimConfig& cfg)
    : mesh_(Mesh::fromConfig(cfg))
{
    params_.numVcs = static_cast<int>(cfg.getInt("num_vcs"));
    params_.vcBufSize = static_cast<int>(cfg.getInt("vc_buf_size"));
    params_.internalSpeedup =
        static_cast<int>(cfg.getInt("internal_speedup"));
    params_.outputFifoSize =
        static_cast<int>(cfg.getInt("output_fifo_size"));

    routing_ = makeRoutingAlgorithm(cfg.getStr("routing"), cfg);
    if (routing_->numEscapeVcs() >= params_.numVcs)
        fatal("routing algorithm needs more VCs than configured");
    if (mesh_.hasWrap()) {
        // Wrapped topologies break deadlock cycles with dateline VC
        // classes, which only plain dimension-order routing honours;
        // the adaptive algorithms' escape/turn arguments assume an
        // acyclic mesh channel graph.
        if (routing_->name() != "dor") {
            std::string msg = "topology '";
            msg += mesh_.kindName();
            msg += "' supports routing=dor only (dateline VC "
                   "deadlock avoidance); got routing=";
            msg += routing_->name();
            fatal(msg);
        }
        if (params_.numVcs < 2)
            fatal("torus/ring DOR needs num_vcs >= 2 for the two "
                  "dateline VC classes");
    }

    // "sharded" stays accepted as the old name of "activity": the
    // frozen benchmark harness and micro_cycle's thread rows pass it.
    const std::string mode = cfg.getStr("step_mode");
    if (mode == "activity" || mode == "sharded")
        stepMode_ = StepMode::Activity;
    else if (mode == "full")
        stepMode_ = StepMode::Full;
    else if (mode == "verify")
        stepMode_ = StepMode::Verify;
    else {
        std::string msg = "unknown step_mode '";
        msg += mode;
        msg += "' (want activity, full, or verify)";
        fatal(msg);
    }

    threads_ = static_cast<int>(cfg.getInt("threads"));
    const int n = mesh_.numNodes();
    // A packet descriptor names its source's pool segment in
    // 32 - kIdxBits bits, and every node has its own segment.
    if (n > static_cast<int>(PacketPool::kMaxSegments)) {
        fatal("the network has " + std::to_string(n)
              + " nodes; at most "
              + std::to_string(PacketPool::kMaxSegments)
              + " are supported (one packet-pool segment per node)");
    }
    const int ejection_rate =
        static_cast<int>(cfg.getInt("ejection_rate"));

    const auto seed = static_cast<std::uint64_t>(cfg.getInt("seed"));

    status_.init(n);
    // One descriptor segment per source endpoint, created up front so
    // parallel phases never grow the segment table.
    pool_.initSegments(n);

    EndpointParams ep;
    ep.numVcs = params_.numVcs;
    ep.vcBufSize = params_.vcBufSize;
    ep.ejectionRate = ejection_rate;
    ep.atomicVcAlloc = routing_->atomicVcAlloc();

    routers_.reserve(static_cast<std::size_t>(n));
    endpoints_.reserve(static_cast<std::size_t>(n));
    for (int node = 0; node < n; ++node) {
        routers_.push_back(std::make_unique<Router>(
            mesh_, node, params_, routing_.get(), seed, &status_));
        endpoints_.push_back(
            std::make_unique<Endpoint>(node, ep, seed, &pool_));
        endpoints_.back()->setWakeHook(&active_, endpointComp(node));
    }

    // --- Link enumeration (two-phase construction, DESIGN.md §17). ---
    // First enumerate every directed link without creating channels:
    // the plan order below is the historical links_ order (East/North
    // pairs per node, then the endpoint pair per node), which the
    // auditor, heatmap, and state dumps iterate. Channel *ids* are
    // then assigned grouped by writer node so the fabric can lay each
    // writer's lanes out contiguously.
    struct LinkPlan
    {
        LinkRecord::Kind kind;
        int srcNode;
        int srcPort;
        int dstNode;
        int dstPort;
    };
    std::vector<LinkPlan> plans;
    plans.reserve(static_cast<std::size_t>(6 * n));
    for (int node = 0; node < n; ++node) {
        for (Dir d : {Dir::East, Dir::North}) {
            if (!mesh_.hasNeighbor(node, d))
                continue;
            const int nbr = mesh_.neighbor(node, d);
            const Dir rd = opposite(d);
            plans.push_back({LinkRecord::Kind::RouterToRouter, node,
                             portOf(d), nbr, portOf(rd)});
            plans.push_back({LinkRecord::Kind::RouterToRouter, nbr,
                             portOf(rd), node, portOf(d)});
            router(node).setNeighbor(portOf(d), nbr);
            router(nbr).setNeighbor(portOf(rd), node);
        }
    }
    for (int node = 0; node < n; ++node) {
        plans.push_back({LinkRecord::Kind::EndpointToRouter, node, -1,
                         node, portOf(Dir::Local)});
        plans.push_back({LinkRecord::Kind::RouterToEndpoint, node,
                         portOf(Dir::Local), node, -1});
    }

    // Stable counting sort of plan index -> channel id: flit channels
    // are written by their srcNode (router transmit or endpoint
    // inject), credit channels by their dstNode (the flit receiver
    // returns credits).
    const std::size_t nl = plans.size();
    std::vector<std::size_t> flit_id(nl);
    std::vector<std::size_t> credit_id(nl);
    {
        std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1,
                                       0);
        for (const LinkPlan& p : plans)
            ++start[idx(p.srcNode) + 1];
        for (std::size_t i = 1; i < start.size(); ++i)
            start[i] += start[i - 1];
        for (std::size_t i = 0; i < nl; ++i)
            flit_id[i] = start[idx(plans[i].srcNode)]++;
        start.assign(static_cast<std::size_t>(n) + 1, 0);
        for (const LinkPlan& p : plans)
            ++start[idx(p.dstNode) + 1];
        for (std::size_t i = 1; i < start.size(); ++i)
            start[i] += start[i - 1];
        for (std::size_t i = 0; i < nl; ++i)
            credit_id[i] = start[idx(plans[i].dstNode)]++;
    }

    // Ring capacity bound per writer: a flit link carries at most one
    // flit per cycle; a credit link carries up to internalSpeedup
    // credits per cycle when a router returns them (moveFlit) and up
    // to ejectionRate when the sink does.
    std::vector<LinkFabric::Spec> flit_specs(nl);
    std::vector<LinkFabric::Spec> credit_specs(nl);
    for (std::size_t i = 0; i < nl; ++i) {
        const LinkPlan& p = plans[i];
        // Per-dimension latencies come from the mesh: a link's
        // dimension is its source-side direction (endpoint links are
        // Local). The credit channel shares its link's latency.
        const int link_latency = mesh_.linkLatency(
            p.kind == LinkRecord::Kind::RouterToRouter
                ? dirOf(p.srcPort)
                : Dir::Local);
        flit_specs[flit_id[i]] = {p.srcNode, link_latency, 1};
        const int credit_rate =
            p.kind == LinkRecord::Kind::RouterToEndpoint
            ? ep.ejectionRate
            : params_.internalSpeedup;
        credit_specs[credit_id[i]] = {p.dstNode, link_latency,
                                      credit_rate};
    }
    fabric_.build(flit_specs, credit_specs);

    // Second phase: wire the fabric's pipes to routers and endpoints
    // in plan order. Endpoint wiring is gathered per node because
    // Endpoint::connect takes all four pipes at once.
    std::vector<std::array<void*, 4>> ep_wiring(
        static_cast<std::size_t>(n), {nullptr, nullptr, nullptr,
                                      nullptr});
    links_.reserve(nl);
    for (std::size_t i = 0; i < nl; ++i) {
        const LinkPlan& p = plans[i];
        FlitChannel* f = &fabric_.flit(flit_id[i]);
        CreditChannel* c = &fabric_.credit(credit_id[i]);
        switch (p.kind) {
        case LinkRecord::Kind::RouterToRouter:
            router(p.srcNode).connectOutput(p.srcPort, f, c);
            router(p.dstNode).connectInput(p.dstPort, f, c);
            break;
        case LinkRecord::Kind::EndpointToRouter:
            router(p.dstNode).connectInput(p.dstPort, f, c);
            ep_wiring[idx(p.srcNode)][0] = f;
            ep_wiring[idx(p.srcNode)][1] = c;
            break;
        case LinkRecord::Kind::RouterToEndpoint:
            router(p.srcNode).connectOutput(p.srcPort, f, c);
            ep_wiring[idx(p.dstNode)][2] = f;
            ep_wiring[idx(p.dstNode)][3] = c;
            break;
        }
        links_.push_back({p.kind, p.srcNode, p.srcPort, p.dstNode,
                          p.dstPort, f, c, flit_id[i], credit_id[i]});
    }
    for (int node = 0; node < n; ++node) {
        auto& w = ep_wiring[idx(node)];
        endpoint(node).connect(static_cast<FlitChannel*>(w[0]),
                               static_cast<CreditChannel*>(w[1]),
                               static_cast<FlitChannel*>(w[2]),
                               static_cast<CreditChannel*>(w[3]));
    }

    buildWakeGraph();
    buildShards(threads_);
}

Network::~Network()
{
    if (crew_.empty())
        return;
    // Between steps every crew member waits at the start round;
    // release it with the stop state set.
    crewState_.store(CrewState::Stopping, std::memory_order_relaxed);
    barrier_.arriveAndWait();
    for (std::thread& t : crew_)
        t.join();
}

void
Network::buildShards(int threads)
{
    const int n = mesh_.numNodes();
    const int num = std::min(threads, n);
    // Partition the row-major node space into contiguous bands. Row-
    // major ids make a band a set of adjacent rows (plus partial rows
    // at the seams), so most links stay band-internal. A band owns
    // both the routers and the endpoints of its nodes: component ids
    // 2k/2k+1 keep each node's pair in one band. The first cut is
    // equal node counts; recutBands() then moves the boundaries
    // toward equal measured time.
    shards_.resize(static_cast<std::size_t>(num));
    recutStarts_.assign(static_cast<std::size_t>(num), 0);
    recutSamples_.assign(static_cast<std::size_t>(num * kRecutWindow),
                         0);
    for (int s = 0; s < num; ++s) {
        recutStarts_[static_cast<std::size_t>(s)] = static_cast<int>(
            static_cast<std::int64_t>(s) * n / num);
        // A band may grow to every node but one per other band, so a
        // re-cut never reallocates a component list.
        shards_[static_cast<std::size_t>(s)].active.reserve(
            static_cast<std::size_t>(2 * (n - num + 1)));
    }
    setBandStarts(recutStarts_);
    if (num == 1)
        return;
    barrier_.reset(num);
    // The calling thread is crew member 0; the others live as long as
    // the network. They hold back from the barrier until all of them
    // exist, so a failed start can still stop and join the rest.
    crew_.reserve(static_cast<std::size_t>(num - 1));
    try {
        for (int c = 1; c < num; ++c)
            crew_.emplace_back([this, c] { crewLoop(c); });
    } catch (...) {
        crewState_.store(CrewState::FailedStart,
                         std::memory_order_release);
        crewState_.notify_all();
        for (std::thread& t : crew_)
            t.join();
        throw;
    }
    crewState_.store(CrewState::Running, std::memory_order_release);
    crewState_.notify_all();
    crewSteps_ = true;
}

void
Network::setBandStarts(std::span<const int> starts)
{
    const int n = mesh_.numNodes();
    FP_ASSERT(starts.size() == shards_.size() && !starts.empty()
                  && starts[0] == 0,
              "band starts need one entry per band, starting at 0");
    for (std::size_t s = 0; s < starts.size(); ++s) {
        const int end = s + 1 < starts.size() ? starts[s + 1] : n;
        FP_ASSERT(starts[s] < end,
                  "band starts must strictly increase below the node "
                  "count (band " << s << " starts at " << starts[s]
                                 << ", next at " << end << ")");
    }
    for (std::size_t s = 0; s < starts.size(); ++s) {
        const int end = s + 1 < starts.size() ? starts[s + 1] : n;
        Shard& sh = shards_[s];
        sh.compBegin = 2 * starts[s];
        sh.compEnd = 2 * end;
        // Full and verify bands list every component they own; within
        // the capacity reserved at build, so this never allocates.
        if (stepMode_ != StepMode::Activity) {
            sh.active.clear();
            for (int c = sh.compBegin; c < sh.compEnd; ++c)
                sh.active.push_back(c);
        }
    }
    if (profiler_ && shards_.size() > 1)
        profiler_->setShardBands(starts, recuts_);
}

void
Network::recutBands()
{
    // Each band should take an equal share of the window's measured
    // time. A band's cost is the median of its per-cycle times, so a
    // cycle in which a worker was preempted does not move boundaries.
    // Cost is taken as uniform per node inside each old band, so
    // cumulative cost is piecewise linear in the node id; interior
    // boundary k moves kRecutDamping of the way toward the node where
    // it reaches k/num of the total. Windows within kRecutTolerance of
    // balanced keep their boundaries, so noise does not churn them.
    constexpr double kRecutDamping = 0.5;
    constexpr double kRecutTolerance = 0.03;
    const std::size_t num = shards_.size();
    std::uint64_t total = 0;
    std::uint64_t max = 0;
    for (std::size_t s = 0; s < num; ++s) {
        const auto first = recutSamples_.begin()
            + static_cast<std::ptrdiff_t>(s * kRecutWindow);
        const auto mid = first + kRecutWindow / 2;
        std::nth_element(first, mid, first + kRecutWindow);
        total += *mid;
        max = std::max(max, *mid);
    }
    auto cost = [this](std::size_t s) {
        return static_cast<double>(
            recutSamples_[s * kRecutWindow + kRecutWindow / 2]);
    };
    const auto total_d = static_cast<double>(total);
    if (total > 0
        && static_cast<double>(max) * static_cast<double>(num)
            > total_d * (1.0 + kRecutTolerance)) {
        const int n = mesh_.numNodes();
        bool moved = false;
        std::size_t s = 0;
        double before = 0.0;  ///< cost of bands [0, s)
        for (std::size_t k = 1; k < num; ++k) {
            const double target = total_d * static_cast<double>(k)
                / static_cast<double>(num);
            while (s + 1 < num && before + cost(s) < target) {
                before += cost(s);
                ++s;
            }
            const Shard& sh = shards_[s];
            const double frac = cost(s) > 0.0
                ? std::min(1.0, (target - before) / cost(s))
                : 0.0;
            const double goal = sh.compBegin / 2
                + frac * (sh.compEnd - sh.compBegin) / 2;
            const int old = shards_[k].compBegin / 2;
            const auto step = static_cast<int>(
                std::lround(kRecutDamping * (goal - old)));
            // Every band keeps at least one node.
            const int lo = recutStarts_[k - 1] + 1;
            const int hi = n - static_cast<int>(num - k);
            recutStarts_[k] = std::clamp(old + step, lo, hi);
            moved |= recutStarts_[k] != old;
        }
        if (moved) {
            ++recuts_;
            setBandStarts(recutStarts_);
        }
    }
}

void
Network::buildWakeGraph()
{
    const int comps = 2 * mesh_.numNodes();
    active_.init(comps);
    for (const LinkRecord& l : links_) {
        int flit_src = -1;
        int flit_dst = -1;
        switch (l.kind) {
        case LinkRecord::Kind::RouterToRouter:
            flit_src = routerComp(l.srcNode);
            flit_dst = routerComp(l.dstNode);
            break;
        case LinkRecord::Kind::RouterToEndpoint:
            flit_src = routerComp(l.srcNode);
            flit_dst = endpointComp(l.dstNode);
            break;
        case LinkRecord::Kind::EndpointToRouter:
            flit_src = endpointComp(l.srcNode);
            flit_dst = routerComp(l.dstNode);
            break;
        }
        // Sending into a pipe wakes its receiver for the next cycle;
        // credits travel against the flit direction (the flit receiver
        // sends them, the flit sender consumes them).
        l.flit->setWakeHook(&active_, flit_dst);
        l.credit->setWakeHook(&active_, flit_src);
    }
    verifyWoken_.reserve(static_cast<std::size_t>(comps));
}

bool
Network::componentHasPendingWork(int comp) const
{
    const std::size_t node = idx(comp >> 1);
    return (comp & 1) ? endpoints_[node]->hasPendingWork()
                      : routers_[node]->hasPendingWork();
}

bool
Network::componentSelfSustains(int comp) const
{
    const std::size_t node = idx(comp >> 1);
    return (comp & 1) ? endpoints_[node]->selfSustains()
                      : routers_[node]->selfSustains();
}

void
Network::phaseReceive(const std::vector<int>& comps,
                      std::int64_t cycle)
{
    for (const int c : comps) {
        if (c & 1)
            endpoints_[idx(c >> 1)]->receivePhase(cycle);
        else
            routers_[idx(c >> 1)]->receivePhase(cycle);
    }
}

void
Network::phaseCompute(const std::vector<int>& comps,
                      std::int64_t cycle)
{
    for (const int c : comps) {
        if (c & 1)
            endpoints_[idx(c >> 1)]->computePhase(cycle);
        else
            routers_[idx(c >> 1)]->computePhase(cycle);
    }
}

void
Network::phaseTransmit(const std::vector<int>& comps,
                       std::int64_t cycle)
{
    for (const int c : comps) {
        if (c & 1)
            continue;
        const int node = c >> 1;
        Router& r = *routers_[idx(node)];
        r.transmitPhase(cycle);
        // Publishes happen strictly after every compute-phase read of
        // the board this cycle, so readers always see last cycle's
        // values (the one-cycle status delay) without double
        // buffering. Only ports whose count may have changed are
        // republished — for skipped routers and clean ports the
        // board's stored value is already current.
        for (std::uint32_t m = r.takePublishMask(); m != 0;
             m &= m - 1) {
            const int port = std::countr_zero(m);
            status_.publish(node, port, r.idleVcCount(port));
        }
    }
}

void
Network::rescheduleAfterStep(const std::vector<int>& comps)
{
    // Wakes from sends were raised by the channel hooks as they
    // happened; all that remains is self-sustain: a component with
    // buffered flits, pending injection, or an item still in flight
    // after its own receive must run again next cycle. Anything sent
    // into its pipes later this cycle already woke it, so this reads
    // only the component's own state — never a pipe another band may
    // be writing (DESIGN.md §12).
    for (const int c : comps) {
        if (componentSelfSustains(c))
            active_.wake(c);
    }
}

void
Network::verifyWakes(std::int64_t cycle)
{
    // Drain the whole wake set, as activity stepping would, and prove
    // that every component it leaves out is quiescent.
    verifyWoken_.clear();
    active_.drainRange(0, active_.size(), verifyWoken_);
    auto woken = verifyWoken_.begin();
    for (int c = 0; c < active_.size(); ++c) {
        if (woken != verifyWoken_.end() && *woken == c) {
            ++woken;
            continue;
        }
        FP_ASSERT(!componentHasPendingWork(c),
                  "activity stepping would skip "
                      << ((c & 1) ? "endpoint " : "router ") << (c >> 1)
                      << " with pending work at cycle " << cycle
                      << " (missed wakeup)");
    }
}

template <typename Fn>
void
Network::runPhase(ProfPhase phase, std::size_t sBegin, std::size_t sEnd,
                  Fn&& body)
{
    // Phase bodies run inside try/catch so a panicking invariant
    // (FP_ASSERT -> InvariantError) cannot strand the other crew
    // members at a barrier: the throwing worker records the error,
    // everyone keeps arriving at the remaining barriers as no-ops, and
    // step() rethrows after the phases. With several bands each body
    // is timed (one clock read per band plus one) into its busy slot,
    // profiled or not: the band re-cut runs on these times. A lone
    // band is timed only for a profiler, as this phase's time.
    if (stepFailed_.load(std::memory_order_relaxed))
        return;
    try {
        if (shards_.size() == 1 && !profiler_) {
            body(shards_[0]);
            return;
        }
        std::uint64_t t0 = Profiler::nowNs();
        for (std::size_t s = sBegin; s < sEnd; ++s) {
            body(shards_[s]);
            const std::uint64_t t1 = Profiler::nowNs();
            if (shards_.size() == 1)
                profiler_->addPhaseNs(phase, t1 - t0);
            else
                shards_[s].busyNs += t1 - t0;
            t0 = t1;
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(stepErrMutex_);
        if (!stepError_)
            stepError_ = std::current_exception();
        stepFailed_.store(true, std::memory_order_relaxed);
    }
}

void
Network::barrierArrive(int member)
{
    if (!crewSteps_)
        return;
    if (!profiler_) {
        barrier_.arriveAndWait();
        return;
    }
    const std::uint64_t t0 = Profiler::nowNs();
    barrier_.arriveAndWait();
    profiler_->recordBarrierWaitNs(member, Profiler::nowNs() - t0);
}

void
Network::crewLoop(int member)
{
    // A member that passes this gate late still arrives at the start
    // round, even if ~Network already set Stopping and waits there.
    crewState_.wait(CrewState::Starting, std::memory_order_acquire);
    if (crewState_.load(std::memory_order_relaxed)
        == CrewState::FailedStart)
        return;
    for (;;) {
        barrier_.arriveAndWait();  // start round
        if (crewState_.load(std::memory_order_relaxed)
            == CrewState::Stopping)
            return;
        stepBands(member, crewCycle_);
        barrier_.arriveAndWait();  // end round
    }
}

void
Network::stepBands(int member, std::int64_t cycle)
{
    // Crew member c steps band c; without a stepping crew the caller
    // steps every band, one phase at a time. Each phase is a barrier
    // over all bands, exactly as a single list would run them, and
    // each list is sorted, so the visit order within a phase matches
    // full stepping's node order too.
    const auto sBegin = static_cast<std::size_t>(member);
    const std::size_t sEnd = crewSteps_ ? sBegin + 1 : shards_.size();
    // Drain + receive share one barrier window: receivePhase only pops
    // channels (it never send()s), so the first wake of this cycle is
    // raised in a compute phase — strictly after the barrier below —
    // and no drain can swallow a cycle-N wake into cycle N's list.
    runPhase(ProfPhase::Drain, sBegin, sEnd, [&](Shard& sh) {
        if (stepMode_ == StepMode::Activity) {
            sh.active.clear();
            active_.drainRange(sh.compBegin, sh.compEnd, sh.active);
        }
        phaseReceive(sh.active, cycle);
    });
    barrierArrive(member);
    // Compute reads cycle-N channel/status state and commits sends for
    // cycle N+latency; the barrier above guarantees every receive (and
    // drain) finished first, the one below orders it before transmit's
    // status publishes.
    runPhase(ProfPhase::Compute, sBegin, sEnd, [&](Shard& sh) {
        phaseCompute(sh.active, cycle);
    });
    barrierArrive(member);
    // The self-sustain rule reads only a component's own state, which
    // its own transmit has just settled, so each band reschedules
    // right after its transmit with no barrier in between. Wakes
    // target cycle N+1's bitmap, which nobody drains before the next
    // start round. Full stepping keeps no wake set.
    runPhase(ProfPhase::Transmit, sBegin, sEnd, [&](Shard& sh) {
        phaseTransmit(sh.active, cycle);
        if (stepMode_ != StepMode::Full)
            rescheduleAfterStep(sh.active);
    });
}

void
Network::epilogue()
{
    // Serial end-of-step epilogue: return this cycle's deferred
    // descriptor releases in node order, then top every touched
    // segment back up to >= 1 free slot so the next cycle's
    // allocations cannot grow a slot array mid-phase. All flushes
    // come strictly before all refills, and components that were not
    // stepped have nothing to flush and a non-empty free list, so
    // free-list contents are the same for any mode and band count.
    ProfileScope ps(profiler_, ProfPhase::Epilogue);
    for (const Shard& sh : shards_) {
        for (const int c : sh.active) {
            if (c & 1)
                endpoints_[idx(c >> 1)]->flushReleases();
        }
    }
    for (const Shard& sh : shards_) {
        for (const int c : sh.active) {
            if (c & 1)
                pool_.refill(c >> 1);
        }
    }
    if (shards_.size() == 1)
        return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& sh = shards_[s];
        if (profiler_)
            profiler_->addShardBusyNs(static_cast<int>(s), sh.busyNs);
        recutSamples_[s * kRecutWindow
                      + static_cast<std::size_t>(recutClock_)] =
            sh.busyNs;
        sh.busyNs = 0;
    }
    // Re-cut the bands from measured time every kRecutWindow cycles.
    if (++recutClock_ == kRecutWindow) {
        recutClock_ = 0;
        recutBands();
    }
    // Workers recorded barrier waits into per-member scratch; fold
    // them into the histogram here, after the end round, where no
    // worker races.
    if (profiler_)
        profiler_->mergeCycleScratch();
}

void
Network::step(std::int64_t cycle)
{
    const bool contiguous = haveStepped_ && cycle == lastCycle_ + 1;
    lastCycle_ = cycle;
    haveStepped_ = true;
    // The first step (and any cycle jump) wakes everything: it seeds
    // the status board and the wake graph from the complete state.
    if (!contiguous)
        active_.wakeAll();
    if (stepMode_ == StepMode::Verify)
        verifyWakes(cycle);
    if (crewSteps_) {
        // The start round publishes the cycle (and any new bands) to
        // the crew; the end round collects every band's phases.
        crewCycle_ = cycle;
        barrier_.arriveAndWait();
        stepBands(0, cycle);
        barrier_.arriveAndWait();
    } else {
        stepBands(0, cycle);
    }
    if (stepError_) {
        stepFailed_.store(false, std::memory_order_relaxed);
        std::rethrow_exception(std::exchange(stepError_, nullptr));
    }
    epilogue();
}

bool
Network::idle() const
{
    // Every pipe in the system feeds exactly one component's
    // hasPendingWork() (router input flit pipes + credit-return
    // pipes; endpoint ejection + credit pipes), so "no component has
    // pending work" implies every channel is empty and every buffer
    // drained: the network cannot change state on its own.
    //
    // In the activity-family modes the pending bitmap already encodes
    // this (the self-sustain rule and the send hooks together re-arm
    // every component with pending work). Full mode never drains
    // the bitmap, so it scans components directly — the scan is off
    // the hot path (it only runs when the driver suspects idleness).
    if (stepMode_ != StepMode::Full)
        return active_.pendingEmpty();
    for (int c = 0; c < active_.size(); ++c) {
        if (componentHasPendingWork(c))
            return false;
    }
    return true;
}

void
Network::skipTo(std::int64_t cycle)
{
    FP_ASSERT(idle(), "skipTo(" << cycle
                                << ") on a non-quiescent network");
    FP_ASSERT(!haveStepped_ || cycle > lastCycle_,
              "skipTo(" << cycle << ") does not advance past "
                        << lastCycle_);
    // An idle network steps every skipped cycle as an exact no-op, so
    // jumping is just clock bookkeeping: pretend cycle-1 was stepped
    // so step(cycle) counts as contiguous and stays on the activity
    // fast path (no wakeAll). Wakes raised meanwhile (e.g. an
    // endpoint enqueue at the horizon) sit in the pending bitmap
    // untouched.
    lastCycle_ = cycle - 1;
    haveStepped_ = true;
}

std::int64_t
Network::totalFlitsInFlight() const
{
    std::int64_t total = 0;
    for (const auto& r : routers_)
        total += r->totalBufferedFlits();
    for (const auto& e : endpoints_)
        total += e->sinkBufferedFlits();
    return total + fabric_.flitsInFlight();
}

Router::Counters
Network::aggregateCounters() const
{
    Router::Counters sum;
    for (const auto& r : routers_) {
        const Router::Counters& c = r->counters();
        sum.vcAllocSuccess += c.vcAllocSuccess;
        sum.vcAllocFail += c.vcAllocFail;
        sum.puritySum += c.puritySum;
        sum.puritySamples += c.puritySamples;
        sum.flitsTraversed += c.flitsTraversed;
        for (std::size_t p = 0; p < sum.vaGrantsByPriority.size(); ++p)
            sum.vaGrantsByPriority[p] += c.vaGrantsByPriority[p];
    }
    return sum;
}

void
Network::resetCounters()
{
    for (auto& r : routers_)
        r->resetCounters();
}

std::uint64_t
Network::totalFlitsInjected() const
{
    std::uint64_t total = 0;
    for (const auto& e : endpoints_)
        total += e->flitsInjected();
    return total;
}

std::uint64_t
Network::totalFlitsEjected() const
{
    std::uint64_t total = 0;
    for (const auto& e : endpoints_)
        total += e->flitsEjected();
    return total;
}

std::uint64_t
Network::totalFlitsSent() const
{
    ProfileScope ps(profiler_, ProfPhase::Link);
    return fabric_.totalFlitsSent();
}

void
Network::attachProfiler(Profiler* profiler)
{
    profiler_ = profiler;
    if (profiler_ && shards_.size() > 1) {
        profiler_->configureSharded(static_cast<int>(shards_.size()),
                                    threads_);
        for (std::size_t s = 0; s < shards_.size(); ++s)
            recutStarts_[s] = shards_[s].compBegin / 2;
        profiler_->setShardBands(recutStarts_, recuts_);
    }
}

void
Network::attachTracer(PacketTracer* tracer)
{
    tracer->setPool(&pool_);
    for (auto& r : routers_)
        r->setTracer(tracer);
    for (auto& e : endpoints_)
        e->setTracer(tracer);
    // The tracer mutates shared trace state from router/endpoint hooks
    // *during* phases; keep its event order exact by stepping every
    // band on this thread (results are bit-identical either way).
    if (crewSteps_) {
        warn("packet tracer attached: every band steps on the calling "
             "thread");
        crewSteps_ = false;
    }
}

} // namespace footprint
