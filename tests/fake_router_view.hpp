/**
 * @file
 * A scriptable RouterView for routing-algorithm unit tests: every
 * piece of router state the algorithms consult can be set directly.
 */

#ifndef FOOTPRINT_TESTS_FAKE_ROUTER_VIEW_HPP
#define FOOTPRINT_TESTS_FAKE_ROUTER_VIEW_HPP

#include <array>
#include <map>
#include <vector>

#include "routing/routing.hpp"
#include "sim/rng.hpp"
#include "topo/mesh.hpp"

namespace footprint {

class FakeRouterView : public RouterView
{
  public:
    FakeRouterView(const Mesh& mesh, int node, int num_vcs,
                   int buf_size = 4)
        : mesh_(mesh), node_(node), numVcs_(num_vcs),
          bufSize_(buf_size), rng_(1)
    {
        for (int p = 0; p < kNumPorts; ++p) {
            // Default: everything idle.
            idle_[static_cast<std::size_t>(p)] = maskOfFirst(num_vcs);
            owners_[static_cast<std::size_t>(p)].assign(
                static_cast<std::size_t>(num_vcs), -1);
        }
    }

    // --- Scripting interface ---

    /** Mark VC (port, vc) occupied by a packet to @p dest. */
    void
    occupy(int port, int vc, int dest)
    {
        idle_[static_cast<std::size_t>(port)] &= ~(VcMask{1} << vc);
        occupied_[static_cast<std::size_t>(port)] |= VcMask{1} << vc;
        owners_[static_cast<std::size_t>(port)]
               [static_cast<std::size_t>(vc)] = dest;
    }

    /** Mark VC (port, vc) drained but still owned by @p dest. */
    void
    drainedOwner(int port, int vc, int dest)
    {
        idle_[static_cast<std::size_t>(port)] |= VcMask{1} << vc;
        occupied_[static_cast<std::size_t>(port)] &= ~(VcMask{1} << vc);
        owners_[static_cast<std::size_t>(port)]
               [static_cast<std::size_t>(vc)] = dest;
    }

    void
    setZeroCredit(int port, VcMask mask)
    {
        zeroCredit_[static_cast<std::size_t>(port)] = mask;
    }

    void
    setRemoteIdle(int through_port, int port, int count)
    {
        remote_[{through_port, port}] = count;
    }

    void setConvergence(int dest, int count) { convergence_[dest] = count; }

    // --- RouterView ---

    int nodeId() const override { return node_; }
    const Mesh& mesh() const override { return mesh_; }
    int numVcs() const override { return numVcs_; }
    int vcBufSize() const override { return bufSize_; }

    VcMask
    idleVcMask(int port) const override
    {
        return idle_[static_cast<std::size_t>(port)];
    }

    VcMask
    footprintVcMask(int port, int dest) const override
    {
        VcMask m = 0;
        for (int v = 0; v < numVcs_; ++v) {
            if (owners_[static_cast<std::size_t>(port)]
                       [static_cast<std::size_t>(v)] == dest) {
                m |= VcMask{1} << v;
            }
        }
        return m;
    }

    VcMask
    occupiedVcMask(int port) const override
    {
        return occupied_[static_cast<std::size_t>(port)];
    }

    VcMask
    zeroCreditVcMask(int port) const override
    {
        return zeroCredit_[static_cast<std::size_t>(port)];
    }

    int
    convergingInputs(int dest) const override
    {
        auto it = convergence_.find(dest);
        return it == convergence_.end() ? 0 : it->second;
    }

    int
    remoteIdleCount(int through_port, int port) const override
    {
        auto it = remote_.find({through_port, port});
        return it == remote_.end() ? -1 : it->second;
    }

    Rng& rng() const override { return rng_; }

  private:
    Mesh mesh_;
    int node_;
    int numVcs_;
    int bufSize_;
    mutable Rng rng_;
    std::array<VcMask, kNumPorts> idle_{};
    std::array<VcMask, kNumPorts> occupied_{};
    std::array<VcMask, kNumPorts> zeroCredit_{};
    std::array<std::vector<int>, kNumPorts> owners_;
    std::map<std::pair<int, int>, int> remote_;
    std::map<int, int> convergence_;
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
