#include "routing/dor.hpp"

namespace footprint {

void
DorRouting::route(const RouterView& view, const Flit& flit,
                  OutputSet& out) const
{
    const Mesh& mesh = view.mesh();
    const Dir d = dorDir(mesh, view.nodeId(), flit.dest);
    VcMask mask = maskOfFirst(view.numVcs());
    if (mesh.hasWrap() && d != Dir::Local) {
        // Dateline VC classes (DESIGN.md §18): within each wrapped
        // dimension's ring the VCs split into class 0 (before the
        // dateline) and class 1 (after). Movement along a DOR
        // dimension is monotone, so "crossed" falls out of comparing
        // the current coordinate against the source's — no per-packet
        // state — and the class resets when DOR switches dimension.
        const int vcs = view.numVcs();
        const int class0 = (vcs + 1) / 2;
        const Coord cur = mesh.coordOf(view.nodeId());
        const Coord src = mesh.coordOf(flit.src);
        bool crossed = false;
        switch (d) {
          case Dir::East: crossed = cur.x < src.x; break;
          case Dir::West: crossed = cur.x > src.x; break;
          case Dir::North: crossed = cur.y < src.y; break;
          case Dir::South: crossed = cur.y > src.y; break;
          case Dir::Local: break;
        }
        // The hop about to be taken may itself cross the dateline;
        // the downstream VC must already be class 1 then.
        crossed = crossed || mesh.datelineCrossing(view.nodeId(), d);
        mask = crossed ? static_cast<VcMask>(mask & ~maskOfFirst(class0))
                       : maskOfFirst(class0);
    }
    out.add(portOf(d), mask, Priority::Low);
}

} // namespace footprint
