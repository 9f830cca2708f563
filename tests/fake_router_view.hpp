/**
 * @file
 * A scriptable RouterView for routing-algorithm unit tests: it
 * scripts the same lanes the router writes, so every piece of router
 * state the algorithms consult can be set directly.
 */

#ifndef FOOTPRINT_TESTS_FAKE_ROUTER_VIEW_HPP
#define FOOTPRINT_TESTS_FAKE_ROUTER_VIEW_HPP

#include "routing/routing.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class FakeRouterView : public RouterView
{
  public:
    /** Every VC idle, neighbors from @p mesh, which must outlive it. */
    FakeRouterView(const Mesh& mesh, int node, int num_vcs)
        : RouterView(mesh, node, num_vcs, 1, &board_)
    {
        board_.init(mesh.numNodes());
        for (int p = 0; p < kNumPorts; ++p)
            neighborNode_[static_cast<std::size_t>(p)] =
                mesh.neighbor(node, dirOf(p));
    }
    FakeRouterView(Mesh&&, int, int) = delete;

    // --- Scripting interface ---

    /** Mark VC (port, vc) allocated to a packet to @p dest. */
    void
    occupy(int port, int vc, int dest)
    {
        outBusy_[static_cast<std::size_t>(port)] |= VcMask{1} << vc;
        outOwner_[ownerIdx(port, vc)] = static_cast<std::int16_t>(dest);
    }

    /** Mark VC (port, vc) drained (idle) but still owned by @p dest. */
    void
    drainedOwner(int port, int vc, int dest)
    {
        outBusy_[static_cast<std::size_t>(port)] &= ~(VcMask{1} << vc);
        outFullCredit_[static_cast<std::size_t>(port)] |= VcMask{1} << vc;
        outOwner_[ownerIdx(port, vc)] = static_cast<std::int16_t>(dest);
    }

    /** Publish the neighbor-through-@p through_port's idle count. */
    void
    setRemoteIdle(int through_port, int port, int count)
    {
        board_.publish(
            neighborNode_[static_cast<std::size_t>(through_port)], port,
            count);
    }

    void
    setConvergence(int dest, int count)
    {
        convergence_[static_cast<std::size_t>(dest)] =
            static_cast<std::uint16_t>(count);
    }

  private:
    StatusBoard board_;
};

/** Build a head flit from @p src to @p dest for routing tests. */
inline Flit
headFlit(int src, int dest)
{
    Flit f;
    f.src = src;
    f.dest = dest;
    f.head = true;
    f.tail = true;
    return f;
}

} // namespace footprint

#endif // FOOTPRINT_TESTS_FAKE_ROUTER_VIEW_HPP
