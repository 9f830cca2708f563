#!/usr/bin/env python3
"""Render footprint.heatmap/1 documents as ASCII or PNG mesh heatmaps.

Reads the windowed spatial grids written by ``simulate --heatmap``
(DESIGN.md §14) and renders one metric of one window as a W x H mesh
heatmap: ASCII shading on stdout by default, or a PNG when --png is
given and matplotlib is installed (the import is gated, so the ASCII
path has no dependencies beyond the standard library). The file is
validated through tools/check_artifact.py first: anything but a valid
footprint.heatmap/1 artifact exits 1.

Usage:
  tools/render_heatmap.py heatmap.json
  tools/render_heatmap.py heatmap.json --metric link_util:east
  tools/render_heatmap.py heatmap.json --window 0 --all-windows
  tools/render_heatmap.py heatmap.json --metric fp_occ --png fp.png

Metrics: vc_occ (default), fp_occ, esc_occ, inj_backlog, inject_util,
eject_util, and link_util:<east|west|north|south>.
"""

import argparse
import sys

import check_artifact

SHADES = " .:-=+*#%@"


def get_grid(window, metric):
    if metric.startswith("link_util:"):
        direction = metric.split(":", 1)[1]
        try:
            return window["link_util"][direction]
        except KeyError:
            raise SystemExit("error: unknown link direction %r "
                             "(east/west/north/south)" % direction)
    if metric == "link_util":
        raise SystemExit("error: link_util needs a direction, e.g. "
                         "--metric link_util:east")
    if metric not in window:
        raise SystemExit("error: unknown metric %r; document has: %s"
                         % (metric,
                            ", ".join(k for k in sorted(window)
                                      if isinstance(window[k], list))))
    return window[metric]


def render_ascii(grid, width, height, title, scale_max):
    lines = [title]
    for y in range(height):
        row = []
        for x in range(width):
            v = grid[y * width + x]
            if scale_max <= 0:
                idx = 0
            else:
                idx = int(round(v / scale_max * (len(SHADES) - 1)))
                idx = max(0, min(len(SHADES) - 1, idx))
            row.append(SHADES[idx] * 2)
        lines.append("  " + "".join(row))
    lines.append("  scale: '%s' = 0 .. '%s' = %.4g"
                 % (SHADES[0], SHADES[-1], scale_max))
    return "\n".join(lines)


def render_png(grids, width, height, metric, out_path):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit("error: --png needs matplotlib; install it or "
                         "use the ASCII output")

    cols = min(len(grids), 4)
    rows = (len(grids) + cols - 1) // cols
    fig, axes = plt.subplots(rows, cols, squeeze=False,
                             figsize=(3.2 * cols, 3.0 * rows))
    vmax = max((max(g) for _, g in grids), default=1.0) or 1.0
    for i, (title, grid) in enumerate(grids):
        ax = axes[i // cols][i % cols]
        data = [[grid[y * width + x] for x in range(width)]
                for y in range(height)]
        im = ax.imshow(data, origin="lower", cmap="inferno",
                       vmin=0.0, vmax=vmax)
        ax.set_title(title, fontsize=8)
        ax.set_xticks([])
        ax.set_yticks([])
    for i in range(len(grids), rows * cols):
        axes[i // cols][i % cols].axis("off")
    fig.colorbar(im, ax=[a for row in axes for a in row],
                 label=metric, shrink=0.8)
    fig.savefig(out_path, dpi=150, bbox_inches="tight")
    print("wrote %s (%d window(s), metric %s)"
          % (out_path, len(grids), metric))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("heatmap", help="footprint.heatmap/1 document")
    ap.add_argument("--metric", default="vc_occ",
                    help="metric to render (default vc_occ); "
                         "link_util needs a direction, e.g. "
                         "link_util:east")
    ap.add_argument("--window", type=int, default=-1,
                    help="window index (default -1 = last)")
    ap.add_argument("--all-windows", action="store_true",
                    help="render every window (time-lapse)")
    ap.add_argument("--png", metavar="FILE",
                    help="write a PNG instead of ASCII "
                         "(needs matplotlib)")
    args = ap.parse_args()

    doc, windows = check_artifact.load_artifact(args.heatmap,
                                                "footprint.heatmap/1")
    width = doc["mesh"]["width"]
    height = doc["mesh"]["height"]

    if args.all_windows:
        selected = list(enumerate(windows))
    else:
        try:
            idx = args.window if args.window >= 0 \
                else len(windows) + args.window
            selected = [(idx, windows[idx])]
        except IndexError:
            raise SystemExit("error: window %d out of range (%d "
                             "windows)" % (args.window, len(windows)))

    grids = []
    for idx, w in selected:
        grid = get_grid(w, args.metric)
        grids.append(("%s cycles [%d, %d)"
                      % (args.metric, w["start"], w["end"]), grid))

    if args.png:
        render_png(grids, width, height, args.metric, args.png)
        return 0

    # Shared scale across the selection so a time-lapse is comparable.
    scale_max = max((max(g) for _, g in grids), default=0.0)
    print("%s  mesh %dx%d  (%d of %d windows)"
          % (args.heatmap, width, height, len(grids), len(windows)))
    for title, grid in grids:
        print(render_ascii(grid, width, height, title, scale_max))
    return 0


if __name__ == "__main__":
    sys.exit(main())
