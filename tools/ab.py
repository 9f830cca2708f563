#!/usr/bin/env python3
"""Same-session A/B benchmark: the working tree against a git ref.

Checks REF out in a temporary git worktree and runs perfbench/run.py
in both trees in alternating pairs, REF first on odd pairs, so host
drift lands on both sides alike. REF defaults to HEAD while tracked
files have uncommitted changes (the change is the working tree) and to
HEAD~1 otherwise (the change is the last commit). Then prints, per
workload and end-to-end metric of BENCHMARK.json, each side's median
and quartiles, the change/REF ratio of the medians, how many pairs the
change won (ties count for neither side) and a verdict:

  gain          the change won at least nine tenths of the pairs and
                the medians differ by more than REF's quartile spread
  regression    the change's median is worse than REF's by more than
                the metric's bound
  unresolved    REF's quartile spread is wider than the bound, so such
                a regression could hide in it, and not every change
                run beats every REF run
  within bound  otherwise

It also prints num_cpus, the build type, both SHAs and each side's
correct / attempted / failed job counts, and removes the worktree on
exit. Both sides build their own harness in Release.

Usage:
  tools/ab.py [REF] [--workload W] [--pairs N] [--seconds S]
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig5_sweep", "sat16", "trace_light")
WIN_SHARE = 0.9


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_perfbench(tree, workload, seconds):
    """Run perfbench once in @tree; return (contexts, final result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: perfbench failed in %s" % tree)
    lines = proc.stdout.splitlines()
    contexts = [json.loads(line[len("context "):]) for line in lines
                if line.startswith("context ")]
    return contexts, json.loads(lines[-1])


def split_metrics(final, workload):
    """{(workload, metric): value} from run.py's last line."""
    out = {}
    for key, m in final["metrics"].items():
        w, name = key.split(".", 1) if workload == "all" \
            else (workload, key)
        out[(w, name)] = m["value"]
    return out


def summary(xs):
    """"median [q1, q3]" of @xs."""
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return "%.4g [%.4g, %.4g]" % (statistics.median(xs), q1, q3)


def verdict(ref, chg, better, bound):
    """Verdict for one metric from its per-pair values (see above)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (r - c) > 0 for r, c in zip(ref, chg))
    q1, _, q3 = statistics.quantiles(ref, n=4, method="inclusive")
    med_r = statistics.median(ref)
    spread = q3 - q1
    gain = sign * (med_r - statistics.median(chg))
    all_better = max(chg) < min(ref) if sign > 0 else min(chg) > max(ref)
    if wins >= WIN_SHARE * len(ref) and gain > spread:
        return wins, "gain"
    if med_r and -gain / abs(med_r) > bound:
        return wins, "regression"
    if med_r and spread / abs(med_r) > bound and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", nargs="?", default=None,
                    help="git ref to compare against (default: HEAD "
                         "while tracked files have uncommitted changes, "
                         "else HEAD~1)")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating REF/change pairs (default 10)")
    ap.add_argument("--seconds", type=float, default=10,
                    help="perfbench --seconds per workload run")
    ap.add_argument("--workdir", default=None,
                    help="where to put the temporary worktree "
                         "(default: the system temp directory)")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    ref = args.ref or ("HEAD" if dirty else "HEAD~1")
    ref_sha = git("rev-parse", "--verify", ref + "^{commit}")
    chg_sha = git("rev-parse", "HEAD")
    if dirty:
        chg_sha += " + working-tree changes"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # A SIGTERM still runs the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="ab-", dir=args.workdir))
    tree = tmp / "ref"
    values = {"ref": {}, "chg": {}}
    counts = {side: [0, 0, 0] for side in values}
    contexts = {}
    try:
        git("worktree", "add", "--detach", str(tree), ref_sha)
        sides = {"ref": tree, "chg": ROOT}
        for i in range(args.pairs):
            order = ("ref", "chg") if i % 2 == 0 else ("chg", "ref")
            for side in order:
                ctx, final = run_perfbench(sides[side], args.workload,
                                           args.seconds)
                contexts[side] = ctx
                c = counts[side]
                c[0] += final["correct"]
                c[1] += final["attempted"]
                c[2] += final["failed"]
                for key, v in split_metrics(final,
                                            args.workload).items():
                    values[side].setdefault(key, []).append(v)
            print("pair %d/%d done (%s first)" % (i + 1, args.pairs,
                                                 order[0]),
                  file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(tree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    for side, label in (("ref", "REF   "), ("chg", "change")):
        ctx = contexts[side][0]
        print("%s %s: num_cpus %s, build %s; %d of %d runs correct, "
              "%d jobs attempted, %d failed"
              % (label, ref_sha if side == "ref" else chg_sha,
                 ctx["num_cpus"], ctx["build_type"], counts[side][0],
                 args.pairs, counts[side][1], counts[side][2]))
    print("%-12s %-17s %-34s %-34s %7s %5s  %s"
          % ("workload", "metric", "REF median [q1, q3]",
             "change median [q1, q3]", "chg/REF", "wins", "verdict"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            ref = values["ref"].get(key)
            chg = values["chg"].get(key)
            if not ref or not chg:
                continue
            wins, v = verdict(ref, chg, m["better"], m["bound"])
            med_r = statistics.median(ref)
            ratio = statistics.median(chg) / med_r if med_r else 0.0
            print("%-12s %-17s %-34s %-34s %7.3f %2d/%-2d  %s"
                  % (w, m["name"], summary(ref), summary(chg), ratio,
                     wins, len(ref), v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
