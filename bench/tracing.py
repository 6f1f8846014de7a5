"""Spans around calls into nnrad's layers, and the per-layer metrics they give.

The benchmark wraps public names in the module namespaces where the
solver looks them up, so nothing under ``src/`` changes.  A span holds a
name, a start, an end and its parent; spans stay in memory until the run
ends.  A ``residual`` or ``F_nl`` span below an ``ad.jacobian`` span ran
on AD scalars and counts as AD; elsewhere it ran on floats.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

import nnrad.ad
import nnrad.analysis
import nnrad.newmark

ROOT = "bench.solve"

# (module, attribute, span name): every place a layer's public function is
# looked up at call time by the solver or by the benchmark itself.
PATCHES = (
    (nnrad.newmark, "integrate", "newmark.integrate"),
    (nnrad.analysis, "integrate", "newmark.integrate"),
    (nnrad.newmark, "residual", "newmark.residual"),
    (nnrad.newmark, "lu_factor", "linalg.lu_factor"),
    (nnrad.newmark, "lu_solve", "linalg.lu_solve"),
    (nnrad.ad, "jacobian", "ad.jacobian"),
    (nnrad.analysis, "sweep", "analysis.sweep"),
    (nnrad.analysis, "steady_window", "analysis.steady_window"),
    (nnrad.analysis, "amplitude", "analysis.amplitude"),
)


class Tracer:
    """In-memory span recorder; ``installed()`` puts its wrappers in place."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.steps = 0
        self.iterations = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn):
        nid = self._id(name)
        counts_steps = name == "newmark.integrate"

        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counts_steps:
                self.steps += out.n_samples - 1
                self.iterations += int(out.iterations.sum())
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def arrays(self):
        """Spans as arrays: name id, parent index, start, end (seconds)."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def layer_metrics(self, rows_failed, overhead_frac):
        """Per-layer metrics over every span recorded so far.

        A ``*_share`` is self time over the summed wall time of the
        ``bench.solve`` root spans.  Everything below ``ad.jacobian`` is
        charged to the AD layer, so the shares partition the solve time.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        n = dur.size
        child = np.zeros(n)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_t = dur - child
        jac = self._ids.get("ad.jacobian", -2)
        under_ad = np.zeros(n, dtype=bool)
        for i in range(n):  # parents precede children
            p = parent[i]
            under_ad[i] = p >= 0 and (name[p] == jac or under_ad[p])

        def sel(span_name, ad=None):
            m = name == self._ids.get(span_name, -2)
            if ad is not None:
                m &= under_ad == ad
            return m

        def mean_us(mask):
            return 1e6 * float(dur[mask].mean()) if mask.any() else 0.0

        wall = float(dur[sel(ROOT)].sum())
        steps = max(self.steps, 1)
        iters = max(self.iterations, 1)
        jac_m = sel("ad.jacobian")
        fnl_f, fnl_a = sel("models.F_nl", False), sel("models.F_nl", True)
        res_f = sel("newmark.residual", False)
        fac, sol = sel("linalg.lu_factor"), sel("linalg.lu_solve")
        integ = sel("newmark.integrate")
        post = sel("analysis.steady_window") | sel("analysis.amplitude")
        sweeps = sel("analysis.sweep")
        rows = integ & np.isin(parent, np.flatnonzero(sweeps))
        sweep_wall = float(dur[sweeps].sum())
        fnl_us = mean_us(fnl_f)
        return {
            "ad.jacobian.us": mean_us(jac_m),
            "ad.jacobian.per_step": jac_m.sum() / steps,
            "ad.jacobian.per_iter": jac_m.sum() / iters,
            "ad.jacobian.share": float(dur[jac_m].sum()) / wall,
            "ad.jacobian.cost_ratio": mean_us(jac_m) / fnl_us if fnl_us else 0.0,
            "models.F_nl.float_us": fnl_us,
            "models.F_nl.ad_us": mean_us(fnl_a),
            "models.F_nl.float_per_step": fnl_f.sum() / steps,
            "models.F_nl.share": float(self_t[fnl_f].sum()) / wall,
            "newmark.iters_per_step": self.iterations / steps,
            "newmark.residual.float_us": mean_us(res_f),
            "newmark.residual.float_per_step": res_f.sum() / steps,
            "newmark.residual.self_share": float(self_t[res_f].sum()) / wall,
            "newmark.integrate.self_share": float(self_t[integ].sum()) / wall,
            "linalg.lu_factor.us": mean_us(fac),
            "linalg.lu_factor.per_step": fac.sum() / steps,
            "linalg.lu_solve.us": mean_us(sol),
            "linalg.lu_solve.per_step": sol.sum() / steps,
            "linalg.solves_per_factor": sol.sum() / max(fac.sum(), 1),
            "linalg.share": float(self_t[fac | sol].sum()) / wall,
            "analysis.sweep.concurrency": (
                float(dur[rows].sum()) / sweep_wall if sweep_wall else 0.0
            ),
            "analysis.sweep.rows_failed": rows_failed,
            "analysis.post_share": float(self_t[post].sum()) / wall,
            "trace.overhead_frac": overhead_frac,
        }
