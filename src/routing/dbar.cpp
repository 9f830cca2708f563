#include "routing/dbar.hpp"

#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {

Dir
DbarRouting::continuationDir(const Mesh& mesh, int node, Dir d, int dest)
{
    const int nbr = mesh.neighbor(node, d);
    if (nbr == dest)
        return Dir::Local;
    Dir dirs[2];
    const int n = mesh.minimalDirsInto(nbr, dest, dirs);
    FP_ASSERT(n > 0, "no minimal direction but not at dest");
    // Prefer staying in the same dimension — that is the link whose
    // occupancy DBAR's dimension-aware status network reports.
    for (int i = 0; i < n; ++i) {
        if (dirs[i] == d)
            return dirs[i];
    }
    return dirs[0];
}

void
DbarRouting::route(const RouterView& view, const Flit& flit,
                   OutputSet& out) const
{
    const int num_vcs = view.numVcs();
    const VcMask adaptive = maskOfFirst(num_vcs) & ~VcMask{1};
    const int threshold = threshold_ > 0 ? threshold_ : num_vcs / 2;
    const Mesh& mesh = view.mesh();
    const int node = view.nodeId();

    if (node == flit.dest) {
        out.add(portOf(Dir::Local), adaptive, Priority::Low);
        out.add(portOf(Dir::Local), VcMask{1}, Priority::Lowest);
        return;
    }

    Dir dirs[2];
    const int num_dirs = mesh.minimalDirsInto(node, flit.dest, dirs);
    FP_ASSERT(num_dirs > 0, "no minimal direction but not at dest");

    Dir chosen = dirs[0];
    if (num_dirs == 2) {
        int local_idle[2];
        int score[2];
        for (int i = 0; i < 2; ++i) {
            const int port = portOf(dirs[i]);
            local_idle[i] = popcount(view.idleVcMask(port));
            int remote = -1;
            if (useRemote_) {
                const Dir cont =
                    continuationDir(mesh, node, dirs[i], flit.dest);
                remote = view.remoteIdleCount(port, portOf(cont));
            }
            score[i] = local_idle[i] + (remote >= 0 ? remote : 0);
        }
        const bool ok0 = local_idle[0] >= threshold;
        const bool ok1 = local_idle[1] >= threshold;
        if (ok0 != ok1) {
            chosen = ok0 ? dirs[0] : dirs[1];
        } else if (score[0] != score[1]) {
            chosen = score[0] > score[1] ? dirs[0] : dirs[1];
        } else {
            chosen = view.rng().nextBool(0.5) ? dirs[1] : dirs[0];
        }
    }

    out.add(portOf(chosen), adaptive, Priority::Low);
    // Escape channel: VC 0 along the dimension-order path, lowest
    // priority, requested every hop (Duato).
    const Dir escape = dorDir(mesh, node, flit.dest);
    out.add(portOf(escape), VcMask{1}, Priority::Lowest);
}

} // namespace footprint
