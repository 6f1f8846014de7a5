"""The time-stepping driver of integrate and sweep: integrate_rows.

integrate_rows advances one or more systems of one n_dof on one time
grid, t0 + i*dt, whose times every step, Trajectory.t and a located
error take alike; integrate is integrate_rows on one system.  Each step
runs newmark._step_core, the one Newton step: on each live row alone, or,
while two or more rows are live and all share a batch_key, on all of
them at once in lock-step, for example the speeds of a sweep.  Then
_step_core takes the rows' stacked states, a stacked view of their
systems (Rows) and their stacked SolveTerms, makes one call per layer
over all of them until every row has converged, a converged row taking
zero steps, and gives each row the bits of its own one-row step.

A lock-step step raises on any fault of any row (a layer raises, a
residual is not finite, max_iter is reached or a Broyden step is zero).
Then step i is run again for every live row on its own: a row that
raises there leaves with that error, located by _locate, and the other
rows go on in lock-step from step i + 1.

newmark's functions are looked up in its namespace at call time, where
a test or the benchmark's tracer may wrap them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from . import newmark
from .linalg import rank_k_base
from .newmark import NewmarkConfig
from .system import Sites, State, Trajectory, grid_steps

__all__ = ["integrate_rows"]


class Rows(NamedTuple):
    """What _step_core reads of the systems of a lock-step batch, stacked.

    systems is an object array of the B systems; M, C and K are their
    (B, n, n) stacks; F_nl, nl_dofs and sites are the ones they share.
    """

    systems: np.ndarray
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    F_nl: Callable
    nl_dofs: np.ndarray
    sites: Optional[Sites]

    def Q(self, t):
        """The (B, n) loads of the rows at t."""
        return np.array([sys.Q(t) for sys in self.systems])


def _stack(systems, terms, live):
    """The Rows and stacked SolveTerms of the rows live, for _step_core."""
    first = systems[live[0]]
    row_systems = np.empty(len(live), dtype=object)
    row_systems[:] = [systems[k] for k in live]
    rows = Rows(row_systems, *(np.array([getattr(systems[k], name) for k in live])
                               for name in "MCK"), first.F_nl, first.nl_dofs,
                first.sites)
    bases = [terms[k].base for k in live]
    f_B = None
    if any(b.f_B is not None for b in bases):
        # A row whose A_eff is singular has no f_B.  Its NaN factor fails
        # the screen of every rank-k inverse, so that row is factored
        # directly; at k = 0 its NaN step faults the batch, and the row
        # raises when the step is run again on its own.
        nan = np.full_like(bases[0].B, np.nan)
        f_B = np.array([nan if b.f_B is None else b.f_B for b in bases])
    base = rank_k_base(np.array([b.B for b in bases]), f_B, bases[0].rows, bases[0].cols)
    return rows, terms[live[0]]._replace(base=base)


def integrate_rows(systems, x0s, v0s, t0, t_end, cfg: NewmarkConfig):
    """integrate for each of several systems of one n_dof.

    x0s and v0s hold each system's initial vectors.  Returns, per system,
    the Trajectory that integrate returns for it, bit for bit, or the
    exception that integrate raises for it, located in the same way.  A
    step runs the live rows in lock-step while two or more are live and
    all share one batch_key that is not None (DynamicSystem.batch_key);
    otherwise it runs each live row on its own.  A bad span or dt raises
    the ValueError of system.grid_steps, the grid rule.
    """
    n_rows, n = len(systems), systems[0].n_dof
    n_steps = grid_steps(t0, t_end, cfg.dt, n_rows * n)
    xs = np.zeros((n_rows, n_steps + 1, n))
    vs = np.zeros((n_rows, n_steps + 1, n))
    accs = np.zeros((n_rows, n_steps + 1, n))
    iters = np.zeros((n_rows, n_steps + 1), dtype=int)
    res_norms = np.zeros((n_rows, n_steps + 1))
    out = [None] * n_rows

    terms = {}
    for k, sys in enumerate(systems):
        try:
            x0 = np.asarray(x0s[k], dtype=float)
            v0 = np.asarray(v0s[k], dtype=float)
            start = State(t0, x0, v0, newmark.initial_acceleration(sys, x0, v0, t0))
            xs[k, 0], vs[k, 0], accs[k, 0] = start.x, start.v, start.a
            terms[k] = newmark.solve_terms(sys, cfg)
        except Exception as err:
            out[k] = err
    live = list(terms)
    keys = {systems[k].batch_key for k in live}
    batched = len(keys) == 1 and None not in keys
    stacked = None
    for i in range(1, n_steps + 1):
        if not live:
            break
        t1 = t0 + i * cfg.dt  # t_grid[i] as a float, whose repr the error note shows
        step = None
        if batched and len(live) > 1:
            if stacked is None:
                # live is in order, so while every row is live a basic
                # slice moves the rows, without fancy indexing.
                idx = slice(None) if len(live) == n_rows else np.array(live)
                stacked = idx, *_stack(systems, terms, live)
            idx, rows, row_terms = stacked
            try:
                step = newmark._step_core(rows, xs[idx, i - 1], vs[idx, i - 1],
                                          accs[idx, i - 1], t1, cfg, row_terms,
                                          step_index=i)
            except Exception:  # the step is run again row by row below
                pass
        if step is not None:
            xs[idx, i], vs[idx, i], accs[idx, i], iters[idx, i], res_norms[idx, i] = step
        else:
            still = []
            for k in live:
                try:
                    (xs[k, i], vs[k, i], accs[k, i], iters[k, i],
                     res_norms[k, i]) = newmark._step_core(
                        systems[k], xs[k, i - 1], vs[k, i - 1], accs[k, i - 1],
                        t1, cfg, terms[k], step_index=i)
                except Exception as err:
                    start = State(t0 + (i - 1) * cfg.dt, xs[k, i - 1].copy(),
                                  vs[k, i - 1].copy(), accs[k, i - 1].copy())
                    _locate(err, i, start, t1)
                    out[k] = err
                else:
                    still.append(k)
            if len(still) < len(live):
                live, stacked = still, None

    t_grid = t0 + cfg.dt * np.arange(n_steps + 1)
    for k in live:
        out[k] = Trajectory(t=t_grid, x=xs[k], v=vs[k], a=accs[k],
                            iterations=iters[k], residual_norms=res_norms[k])
    return out


def _locate(err, i, state, t1):
    """Mark err as raised in step i, which advanced from the State state to t1."""
    err.step_index, err.t, err.state = i, t1, state
    if hasattr(err, "add_note"):  # Python >= 3.11
        err.add_note(f"in Newmark step {i}, advancing from t = "
                     f"{state.t!r} to t = {t1!r}")
