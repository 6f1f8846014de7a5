#!/usr/bin/env python3
"""Regenerate ``bench/reference.json`` from the solver in this checkout.

    python3 bench/make_reference.py

For every pool input of every workload the reference output is that of
the workload's own Newton strategy.  The other two strategies run too:
each tolerance is SAFETY times the largest relative gap they show (at
least FLOOR), so all three strategies pass it.  The file also holds the
states that the ``dual_full`` solves and the ``sfd_sweep`` rows start
from (``settle``).  Run this only at a commit whose outputs are
accepted, since every benchmark run is judged against the file it
writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from nnrad.newmark import STRATEGIES, NewmarkConfig  # noqa: E402

SAFETY, FLOOR = 10.0, 1e-9
ITER_SAFETY, ITER_FLOOR = 1.25, 0.02


def tabulate(wl, name, run_all):
    """Reference cases and tolerances from {strategy: [Record]} runs."""
    runs = {}
    for strategy in STRATEGIES:
        wl.cfg = NewmarkConfig(dt=wl.dt, strategy=strategy)
        runs[strategy] = run_all()
        bad = [r for r in runs[strategy] if r.error is not None]
        if bad:
            raise RuntimeError(f"{name} {strategy}: {bad[0].key} raised {bad[0].error}")
    ref = {r.key: r.values for r in runs[wl.strategy]}
    gaps = {}
    for records in runs.values():
        for r in records:
            for q, v in r.values.items():
                gaps[q] = max(gaps.get(q, 0.0), workloads.relative_gap(v, ref[r.key][q]))
    tol = {q: max(ITER_SAFETY * g, ITER_FLOOR) if q == "iters" else max(SAFETY * g, FLOOR)
           for q, g in gaps.items()}
    print(f"{name}: {len(ref)} cases, largest strategy gaps {gaps}", flush=True)
    return {"strategy": wl.strategy, "strategy_gaps": gaps, "tolerance": tol, "cases": ref}


def main():
    out = {}
    wl = workloads.DuffingFull()
    wl.setup()
    out[wl.name] = tabulate(
        wl, wl.name, lambda: [r for p in wl.pool() for r in wl.run(p).records])
    wl = workloads.DualFull()
    starts = {wl.key(p): wl.settle(p) for p in wl.pool()}
    wl.setup(starts)
    out[wl.name] = tabulate(
        wl, wl.name, lambda: [r for p in wl.pool() for r in wl.run(p).records])
    out[wl.name]["starts"] = starts
    wl = workloads.SfdSweep()
    start = wl.settle()
    wl.setup(start)
    out[wl.name] = tabulate(wl, wl.name, lambda: wl.run(wl.pool()).records)
    out[wl.name]["start"] = start
    low, high = wl.trend_pools()
    out[wl.trend_name] = tabulate(
        wl, wl.trend_name,
        lambda: wl.records(wl.trend_name, wl.sweep(low + high, wl.trend_t_end)))
    amp = {k: v["amp"][0] for k, v in out[wl.trend_name]["cases"].items()}
    lowest_low = min(amp[wl.key(s)] for s in low)
    highest_high = max(amp[wl.key(s)] for s in high)
    if not highest_high < lowest_low:
        raise RuntimeError(f"trend pools overlap: {highest_high} >= {lowest_low}")
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
