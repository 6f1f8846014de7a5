"""Self-tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


def _records(table_name, scale):
    """One record per reference quantity, that quantity scaled by ``scale``."""
    table = REFERENCE[table_name]
    key, ref = next(iter(table["cases"].items()))
    out = []
    for name, tol in table["tolerance"].items():
        values = dict(ref)
        values[name] = (np.asarray(ref[name], dtype=float) * (1.0 + scale * tol)).tolist()
        out.append(workloads.Record(table_name, key, values))
    return out


@pytest.mark.parametrize("table", sorted(REFERENCE))
def test_perturbation_beyond_tolerance_counts_as_failure(table):
    outside = _records(table, 2.0)
    inside = _records(table, 0.5)
    records = outside + inside
    failed = workloads.failures(records, REFERENCE)
    assert [r for r, _ in failed] == outside
    assert len(failed) / len(records) == 0.5  # the run's fail_frac


def test_non_finite_and_raised_outputs_fail():
    key, ref = next(iter(REFERENCE["duffing_full"]["cases"].items()))
    nan = workloads.Record("duffing_full", key, dict(ref, x=[math.nan]))
    raised = workloads.Record("duffing_full", key, error="NonConvergenceError")
    unknown = workloads.Record("duffing_full", "9.99", dict(ref))
    assert len(workloads.failures([nan, raised, unknown], REFERENCE)) == 3


def test_tail_has_ten_samples_above():
    values = list(range(1, 21))
    assert stats.tail(values) == (10, 50.0)
    with pytest.raises(ValueError):
        stats.tail(values[:10])


def test_too_few_samples_leave_the_timing_metrics_out():
    values, _ = run.end_to_end([1.0] * 10, [2.0] * 10, [0.3] * 3, [0.5] * 3, 100.0)
    assert sorted(values) == ["peak_rss_mb", "setup_s"]
    values, _ = run.end_to_end([1.0] * 11, [2.0] * 11, [0.3] * 3, [0.5] * 3, 100.0)
    assert sorted(values) == sorted(m["name"] for m in run.SPEC["end_to_end"])


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(base, [v * 1.3 for v in base], 0.15, "lower") == "WORSE"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.15, "higher") == "better"
    assert compare.verdict(base, [v * 1.05 for v in base], 0.15, "lower") == "same"
    noisy = [0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, noisy, 0.15, "lower") == "unresolved"


def test_traced_solve_is_bit_identical_and_restores_the_solver():
    import nnrad.newmark

    original = nnrad.newmark.residual
    wl = workloads.get("duffing_full")
    wl.setup()
    wl.t_end = 0.02
    plain = wl.run(2.0)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.ROOT):
        traced = wl.run(2.0, tracer)
    assert nnrad.newmark.residual is original
    assert workloads.same_bits(plain.raw, traced.raw)
    m = tracer.layer_metrics(rows_failed=0, overhead_frac=0.0)
    assert tracer.steps == 20
    assert m["ad.jacobian.per_iter"] == 1.0  # full Newton
    assert m["linalg.solves_per_factor"] > 0.9
    shares = [v for k, v in m.items() if k.endswith("share")]
    assert 0.5 < sum(shares) <= 1.0
