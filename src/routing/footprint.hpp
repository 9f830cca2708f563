/**
 * @file
 * The Footprint routing algorithm (the paper's contribution,
 * Algorithm 1): fully adaptive routing whose adaptiveness is regulated
 * under congestion by steering packets onto "footprint" VCs — VCs
 * already occupied by packets to the same destination.
 */

#ifndef FOOTPRINT_ROUTING_FOOTPRINT_HPP
#define FOOTPRINT_ROUTING_FOOTPRINT_HPP

#include "routing/routing.hpp"

namespace footprint {

/**
 * Footprint routing (Algorithm 1 of the paper).
 *
 * Step 1 — legal outputs: the (at most two) minimal ports, with VC 0
 * as the Duato escape channel along the XY path.
 *
 * Step 2 — port selection: more idle VCs wins; then more footprint VCs
 * wins; then a random choice.
 *
 * Step 3 — VC requests on the chosen port, by congestion regime
 * (threshold defaults to half the VCs per channel). The exact
 * behaviour under congestion is selected by a Variant (see below);
 * all variants request the escape VC at the lowest priority and all
 * adaptive VCs at Low priority when the port is uncongested.
 */
class FootprintRouting : public RoutingAlgorithm
{
  public:
    /**
     * How Step 3 regulates adaptiveness once the chosen port is
     * congested (idle VCs below the threshold).
     *
     * - Literal: the pseudo-code of Algorithm 1 verbatim. At zero idle
     *   VCs packets wait on footprint VCs; at moderate load idle VCs
     *   are requested at Highest, footprints at High, busy VCs at Low.
     * - Wait: the strictest reading of the paper's prose ("packets
     *   should wait on Footprint channels"): any packet whose
     *   destination has footprints waits on them whenever the port is
     *   congested. Maximally slim congestion trees, but a lone flow
     *   under ordinary network congestion is serialised onto one VC.
     * - Converge (default): waiting additionally requires traffic to
     *   the destination to be *accumulating* at this router (two or
     *   more input VCs holding flits to it — the paper's Sec.-2
     *   convergence) and the destination to already occupy at least
     *   two footprint lanes, so a regulated stream keeps enough lane
     *   parallelism to saturate a link. Pass-through flows stay fully
     *   adaptive; endpoint-congested traffic is confined to its
     *   footprint lanes.
     */
    enum class Variant {
        Literal,
        Wait,
        Converge,
    };

    /**
     * @param congestion_threshold idle-VC count at or above which the
     *        port is deemed uncongested; 0 selects num_vcs / 2.
     * @param fp_vc_cap maximum footprint VCs a destination may occupy
     *        per port; 0 means unlimited (the paper's evaluated
     *        configuration; Sec. 4.2.5 discusses the capped variant).
     * @param variant congested-regime behaviour, see Variant.
     * @param converge_threshold for Variant::Converge, the number of
     *        input VCs holding flits to the destination at which its
     *        traffic counts as converging.
     */
    explicit FootprintRouting(int congestion_threshold = 0,
                              int fp_vc_cap = 0,
                              Variant variant = Variant::Converge,
                              int converge_threshold = 2)
        : threshold_(congestion_threshold), fpVcCap_(fp_vc_cap),
          variant_(variant), convergeThreshold_(converge_threshold)
    {}

    std::string name() const override { return "footprint"; }

    void route(const RouterView& view, const Flit& flit,
               OutputSet& out) const override;

    bool atomicVcAlloc() const override { return true; }
    int numEscapeVcs() const override { return 1; }

    int congestionThreshold(int num_vcs) const;
    Variant variant() const { return variant_; }

    /** Parse "literal" / "wait" / "converge"; fatal() otherwise. */
    static Variant parseVariant(const std::string& name);

  private:
    /** Emit the Step-3 VC requests for port @p port. */
    void addVcRequests(const RouterView& view, int port, int dest,
                       OutputSet& out) const;

    int threshold_;
    int fpVcCap_;
    Variant variant_;
    int convergeThreshold_;
};

} // namespace footprint

#endif // FOOTPRINT_ROUTING_FOOTPRINT_HPP
