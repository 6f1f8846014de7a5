#!/usr/bin/env python3
"""nnrad benchmark: ms per Newmark step on three workloads, and a traced
per-layer pass.  Run from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

``--trace 0`` times samples (solves, or sweeps for ``sfd_sweep``) for S
seconds, checks every output against ``bench/reference.json``, then sets
the workload up several times in fresh interpreters and prints the
end-to-end metrics.  ``--trace 1`` runs each input once untraced and once
traced, asserts the two outputs are bit-identical and prints the
per-layer metrics.  The last line of stdout is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with the run environment and the samples, is written to
``--out`` (default ``bench/out``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 9
MIN_SAMPLES = 30  # keeps the tail (10 samples above it) at p66 or higher
MAX_MEASURE_S = 90.0  # stop short of MIN_SAMPLES rather than overrun the run
MIN_TRACED_PAIRS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# numpy, nnrad and the bench modules that import them are imported inside
# functions, after prepare_environment() has fixed the thread variables.


def prepare_environment() -> dict:
    """Fix what a developer's shell could change, and record it.

    NNRAD_THREADS is removed so every sweep runs serially, as by default;
    a BLAS/OpenMP thread count above the usable CPUs is lowered to them.
    Runs before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    inherited = os.environ.pop("NNRAD_THREADS", None)
    threads = {}
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > nproc:
            value = os.environ[var] = str(nproc)
        threads[var] = value
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "NNRAD_THREADS": "cleared",
        "NNRAD_THREADS_inherited": inherited,
        "thread_vars": threads,
    }


def fresh_interpreter_s(args) -> float:
    """Wall seconds of a fresh interpreter run with ``args``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def measure_setup(workload: str, repeats: int):
    """Seconds for fresh interpreters to import, build and warm up: (scaled, wall).

    Each set-up is bracketed by fresh interpreters that only import NumPy
    and SciPy, and scaled by NOMINAL_IMPORT_S over their mean time
    (calibration.py).
    """
    import calibration

    probe = [str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"]
    before = fresh_interpreter_s(calibration.IMPORT_ARGS)
    scaled, wall = [], []
    for _ in range(repeats):
        wall.append(fresh_interpreter_s(probe))
        after = fresh_interpreter_s(calibration.IMPORT_ARGS)
        scaled.append(wall[-1] * calibration.scale(before, after,
                                                   calibration.NOMINAL_IMPORT_S, 1.0))
        before = after
    return scaled, wall


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (Linux KiB).

    Read before the benchmark starts a process of its own, so the children
    are only the workers that the solver started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def attempt(wl, p, tracer=None):
    """One sample; returns (Sample or None, wall seconds, records)."""
    import workloads

    t0 = perf_counter()
    try:
        sample = wl.run(p, tracer)
    except Exception as err:  # a failed solve is counted, the run goes on
        return None, perf_counter() - t0, [
            workloads.Record(wl.name, str(p), error=f"{type(err).__name__}: {err}")
        ]
    return sample, perf_counter() - t0, sample.records


def measure(wl, seed: int, seconds: float):
    """Untraced samples for ``seconds``, and at least MIN_SAMPLES of them.

    Returns ms/step per sample scaled to the nominal machine speed, the
    same unscaled, the kernel times and the output records.
    """
    import calibration

    inputs = wl.inputs(seed)
    scaled, raw, records = [], [], []
    before = calibration.measure()
    kernel_s = [before]
    start = perf_counter()
    while perf_counter() - start < seconds or (
        len(raw) < MIN_SAMPLES and perf_counter() - start < MAX_MEASURE_S
    ):
        sample, wall, recs = attempt(wl, next(inputs))
        after = calibration.measure()
        kernel_s.append(after)
        records += recs
        if sample is not None:
            raw.append(1e3 * wall / sample.steps)
            scaled.append(raw[-1] * calibration.scale(before, after))
        before = after
    return scaled, raw, kernel_s, records


def measure_traced(wl, seed: int, seconds: float):
    """Each input untraced and traced, in alternating order, for ``seconds``.

    Per-call times (unit ``us``) are scaled to the nominal machine speed by
    the median of the calibration runs made between input pairs.
    """
    import calibration
    import stats
    import tracing
    import workloads

    tracer = tracing.Tracer()
    inputs = wl.inputs(seed)
    walls = {False: 0.0, True: 0.0}
    records, traced_records, kernel_s = [], [], [calibration.measure()]
    identical, pairs = True, 0
    start = perf_counter()
    while pairs < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        p = next(inputs)
        out = {}
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            if traced:
                with tracer.installed(), tracer.span(tracing.ROOT):
                    out[traced] = attempt(wl, p, tracer)
            else:
                out[traced] = attempt(wl, p)
            walls[traced] += out[traced][1]
            records += out[traced][2]
        kernel_s.append(calibration.measure())
        traced_records += out[True][2]
        plain, traced = out[False][0], out[True][0]
        identical &= (
            plain is not None and traced is not None
            and workloads.same_bits(plain.raw, traced.raw)
        )
        pairs += 1
    rows_failed = sum(r.error is not None for r in traced_records)
    metrics = tracer.layer_metrics(rows_failed, walls[True] / walls[False] - 1.0)
    median = stats.quartiles(kernel_s)[1]
    factor = calibration.scale(median, median)
    for name in metrics:
        if UNITS[name] == "us":
            metrics[name] *= factor
    return tracer, metrics, records, identical, pairs, kernel_s


def end_to_end(ms, raw, setup_s, setup_wall, rss):
    """End-to-end metric values and their printed notes.

    The ms/step metrics are left out when no more than stats.TAIL_BEYOND
    samples succeeded, as a tail needs more.
    """
    import stats

    values = {"setup_s": stats.quartiles(setup_s)[1], "peak_rss_mb": rss}
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups; unscaled "
                   f"{stats.quartiles(setup_wall)[1]:.4g} s",
        "peak_rss_mb": "this process plus its largest worker",
    }
    if len(ms) > stats.TAIL_BEYOND:
        tail, pct = stats.tail(ms)
        values.update({"ms_per_step": stats.quartiles(ms)[1], "ms_per_step.tail": tail})
        notes.update({
            "ms_per_step": f"median of {len(ms)} samples; unscaled "
                           f"{stats.quartiles(raw)[1]:.4g} ms",
            "ms_per_step.tail": f"p{pct:.1f}: {stats.TAIL_BEYOND} of {len(ms)} "
                                f"samples above; unscaled {stats.tail(raw)[0]:.4g} ms",
        })
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BENCH / "out",
                    help="directory for the full result file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "nnrad" / "__init__.py").is_file():
        print(f"error: no nnrad sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = prepare_environment()
    sys.path.insert(1, str(SRC))
    import numpy
    import scipy

    import nnrad
    import workloads

    if Path(nnrad.__file__).resolve().parent != SRC / "nnrad":
        print(f"error: imported nnrad from {nnrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.get(args.workload)
    wl.setup()
    wl.warm_up()
    if args.setup_probe:
        return 0
    env.update(numpy=numpy.__version__, scipy=scipy.__version__, seed=args.seed)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    if args.trace:
        tracer, values, records, identical, pairs, kernel_s = measure_traced(
            wl, args.seed, args.seconds)
        notes = {name: f"{pairs} input pairs" for name in values}
        result["samples"] = {"calibration_s": kernel_s}
    else:
        ms, raw, kernel_s, records = measure(wl, args.seed, args.seconds)
        identical = True
    records += wl.finish(args.seed)
    if not args.trace:
        rss = peak_rss_mb()
        setup_s, setup_wall = measure_setup(args.workload, SETUP_REPEATS)
        values, notes = end_to_end(ms, raw, setup_s, setup_wall, rss)
        result["samples"] = {"ms_per_step": ms, "ms_per_step_unscaled": raw,
                             "setup_s": setup_s,
                             "setup_s_unscaled": setup_wall,
                             "calibration_s": kernel_s}

    reference = workloads.load_reference()
    failures = workloads.failures(records, reference)
    # Too few good samples leave the timing metrics out; the run is not correct.
    expected = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    correct = not failures and identical and sorted(values) == sorted(expected)
    metrics = {k: {"value": float(values[k]), "unit": UNITS[k]}
               for k in expected if k in values}
    result.update(correct=correct, attempted=len(records), failed=len(failures),
                  metrics=metrics, bit_identical=identical,
                  failures=[f"{r.workload} {r.key}: {why}" for r, why in failures[:20]])

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if args.trace:
        tracer.save(args.out / f"{stem}.spans.npz")
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"nnrad bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']:9s} {notes[name]}")
    print(f"  {'fail_frac':34s} {len(failures) / len(records):12.6g} {'frac':9s} "
          f"{len(failures)} of {len(records)} solves failed")
    if args.trace:
        print(f"  traced outputs bit-identical to untraced: {identical}")
    for line in result["failures"]:
        print("  FAIL " + line)
    print(f"  result: {args.out / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
