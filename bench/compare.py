#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories searched recursively for the result files
written by ``bench/run.py --out DIR`` (or single result files).  For every workload and metric the
table gives each side's median and quartiles over its runs.  An
end-to-end metric is flagged ``WORSE`` or ``better`` when the medians
differ by more than the metric's bound in ``BENCHMARK.json``, and
``unresolved`` when either side's spread, (q3 - q1) / median, is wider
than the bound, unless every NEW run beats every BASE run or the reverse.
Per-layer metrics have no bound and are only listed.  The exit status is
1 when any metric is WORSE, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path):
    """{(workload, metric): [values]} over the result files under ``path``."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for f in files:
        result = json.loads(f.read_text())
        for name, m in result["metrics"].items():
            runs[result["workload"], name].append(m["value"])
    return runs


def verdict(base, new, bound, better):
    """'same', 'better', 'WORSE' or 'unresolved' for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    _, b_med, _ = stats.quartiles(base)
    _, n_med, _ = stats.quartiles(new)
    worse_by = sign * (n_med - b_med) / abs(b_med)
    b = [sign * v for v in base]
    n = [sign * v for v in new]
    separated = min(n) > max(b) or max(n) < min(b)
    spread = max((q3 - q1) / abs(med) for q1, med, q3 in map(stats.quartiles, (base, new)))
    if spread > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "WORSE"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base_runs, new_runs, spec):
    """Table rows (workload, metric, base q1/med/q3, new q1/med/q3, status)."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    rows = []
    for key in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[key], new_runs[key]
        status = verdict(base, new, *bounds[key[1]]) if key[1] in bounds else "-"
        rows.append((*key, stats.quartiles(base), stats.quartiles(new), status))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.base), load_runs(args.new), spec)
    print(f"{'workload':14s} {'metric':32s} {'base q1/median/q3':>34s} "
          f"{'new q1/median/q3':>34s}  status")
    for workload, metric, b, n, status in rows:
        fmt = "/".join(f"{v:.4g}" for v in b), "/".join(f"{v:.4g}" for v in n)
        print(f"{workload:14s} {metric:32s} {fmt[0]:>34s} {fmt[1]:>34s}  {status}")
    return 1 if any(r[-1] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
