"""Compare two sets of benchmark results: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py writes, one per run (its
``--results-dir``).  Runs of one workload are paired in seed order.  For
every workload and end-to-end metric the report gives each side's median
and quartiles, the pairs the change won, and a verdict:

- improved: the change wins at least nine tenths of all pairs, ties
  counting for neither, and the medians differ in the better direction by
  more than the parent's own spread (the distance between its quartiles);
- unresolved: either side's spread exceeds the metric's bound (as a share
  of its median), unless every change run reads better than every parent
  run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no worse: within the bound.

Then it lists every per-layer metric whose median moved by more than 10 %.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYER_MOVE = 0.10


def quartiles(values):
    """(q1, median, q3) by statistics.quantiles(values, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for paired runs (lists in pair order) of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= 0.9 * min(len(parent), len(change)) and sign * (cm - pm) > p3 - p1:
        return "improved", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def load(directory):
    """(workload, trace) -> records sorted by seed."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        rec = json.loads(path.read_text())
        groups[(rec["workload"], rec["trace"])].append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r["seed"])
    return groups


def compare(parent, change, spec):
    """Report lines for two loaded result sets."""
    lines = []
    for (workload, trace), p_recs in sorted(parent.items()):
        c_recs = change.get((workload, trace), [])
        if not c_recs:
            lines.append(f"{workload} trace {trace}: no change runs")
            continue
        if trace == 0:
            lines.append(f"{workload}: {len(p_recs)} parent runs, {len(c_recs)} change runs")
            for m in spec["end_to_end"]:
                p = [r["metrics"][m["name"]]["value"] for r in p_recs]
                c = [r["metrics"][m["name"]]["value"] for r in c_recs]
                word, wins = verdict(p, c, m["better"], m["bound"])
                pq, cq = quartiles(p), quartiles(c)
                lines.append(
                    f"  {m['name']:<14} {m['unit']:<6} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                    f"  wins {wins}/{min(len(p), len(c))}  bound {m['bound']:g}  {word}")
        else:
            moved = []
            for m in spec["per_layer"]:
                pm = statistics.median(r["metrics"][m["name"]]["value"] for r in p_recs)
                cm = statistics.median(r["metrics"][m["name"]]["value"] for r in c_recs)
                if pm == cm:
                    continue
                if pm == 0 or abs(cm - pm) > LAYER_MOVE * abs(pm):
                    rel = f"{100 * (cm - pm) / abs(pm):+.1f} %" if pm else "from 0"
                    moved.append(f"  {m['name']:<46} {pm:.6g} -> {cm:.6g} {m['unit']} ({rel})")
            lines.append(f"{workload} per-layer metrics moved by more than "
                         f"{100 * LAYER_MOVE:g} %: {len(moved)}")
            lines.extend(moved)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in compare(load(args.parent), load(args.change), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
