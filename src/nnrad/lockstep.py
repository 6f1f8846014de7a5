"""The time-stepping driver of integrate and sweep: integrate_rows.

integrate_rows advances one or more systems of one n_dof on one time
grid; integrate is integrate_rows on one system.  In each step every
live row runs newmark._step_core, unless two or more rows are live and
all share a batch_key: then the step runs them in lock-step
(_batched_step), for example the speeds of a sweep.  Each Newton
iteration makes one residual, Jacobian, factor and solve call over the
stacked rows still iterating, and a row leaves the step once it
converges.  The strategy rules and the convergence tests are newmark's
own, and every batched call reproduces the one-row bits, so each row's
trajectory is the one _step_core gives it.

The batched step runs only the clean case.  When a row faults in step
i (a layer raises, a residual is not finite, max_iter is reached or a
Broyden step is zero), step i is run again for every row with
_step_core, as in a step that is not batched: a row that raises there
leaves with that error, located by _locate, and the other rows go on
batched from step i + 1.

The layer calls go through newmark's namespace, where _step_core finds
them too.
"""

from __future__ import annotations

import math

import numpy as np

from . import ad, newmark
from .linalg import norm2
from .newmark import (
    BROYDEN_RANK1,
    NewmarkConfig,
    SolveTerms,
    StepTerms,
    _map_terms,
    _refresh_due,
    _small_step,
)
from .system import State, Trajectory

__all__ = ["integrate_rows"]


def _residual_rows(x1, p: StepTerms, rows):
    """residual of each row: stacked StepTerms p and matrices of rows."""
    a1 = p.acceleration(x1)
    v1 = p.velocity(x1)
    lin = (ad.matvec(rows["M"], a1) + ad.matvec(rows["C"], v1)
           + ad.matvec(rows["K"], x1))
    return lin + ad.stack(rows["system"][0].F_nl(x1, v1, a1, p.t1)) - p.q1


def _batched_step(rows, seeds, X, V, A, t1, cfg):
    """_step_core of every row of a batch, in lock-step, while no row faults.

    rows maps "system", "M", "C", "K", "A_eff" and, where the rows'
    Jacobians are factored against A_eff, its factor "f_eff" to arrays
    over the B rows; seeds are the rows' shared SolveTerms.seeds.  X, V,
    A are their (B, n) states before t1.  Each Newton iteration makes one
    batched call per layer over the rows still iterating.  Returns
    (X1, V1, A1, iterations, residual norms), or None when a residual is
    not finite, a row reaches max_iter or a Broyden step is zero; a
    layer that raises leaves with its exception.
    """
    n_rows = len(X)
    c_a, g_a, c_v, g_v = _map_terms(X, V, A, cfg)
    out_x, out_rn = X.copy(), np.zeros(n_rows)
    out_iters = np.zeros(n_rows, dtype=int)
    # The rows still iterating; every entry is indexed by row first.
    live = dict(rows, row=np.arange(n_rows), g_a=g_a, g_v=g_v, x=X.copy(),
                q1=np.array([sys.Q(t1) for sys in rows["system"]]))
    iters = 0

    def terms():
        return StepTerms(t1, c_a, live["g_a"], c_v, live["g_v"], live["q1"])

    def evaluate():
        """Residuals and norms of the live rows; False if one is not finite."""
        live["R"] = _residual_rows(live["x"], terms(), live)
        live["rn"] = norm2(live["R"])
        return np.isfinite(live["rn"]).all()

    def done(mask):
        """Accept the rows in mask at the current x; False when none is left."""
        if not mask.any():
            return True
        rows_done = live["row"][mask]
        out_x[rows_done] = live["x"][mask]
        out_iters[rows_done] = iters
        out_rn[rows_done] = live["rn"][mask]
        if mask.all():
            return False
        for name, value in live.items():
            live[name] = value[~mask]
        return True

    if not evaluate():
        return None
    running = done(live["rn"] < cfg.tol_res)
    while running:
        if iters >= cfg.max_iter:
            return None
        if _refresh_due(cfg, "lu" in live, iters):
            base = None
            if "f_eff" in live:
                base = (live["A_eff"], live["f_eff"], live["system"][0].nl_dofs)
            J = newmark.step_jacobian(live["x"], terms(), live["system"][0],
                                      SolveTerms(live["A_eff"], seeds, base))
            live["lu"] = newmark.lu_factor(J, base)
        live["dx"] = newmark.lu_solve(live["lu"], live["R"])
        live["x"] = live["x"] - live["dx"]
        iters += 1
        if not evaluate():
            return None
        if not done(_small_step(norm2(live["dx"]), norm2(live["x"]), cfg)):
            break
        if cfg.strategy == BROYDEN_RANK1:
            # The good Broyden update of _step_core, which skips a zero dx.
            dd = ad.dot(live["dx"], live["dx"])
            if not (dd > 0.0).all():
                return None
            live["lu"] = newmark.lu_update(live["lu"], live["R"] / dd, -live["dx"])
        running = done(live["rn"] < cfg.tol_res)
    return out_x, c_v * out_x + g_v, c_a * out_x + g_a, out_iters, out_rn


def _stack(systems, terms, live):
    """_batched_step's rows: the systems and stacked matrices of the rows live."""
    n = systems[live[0]].n_dof
    row_systems = np.empty(len(live), dtype=object)
    row_systems[:] = [systems[k] for k in live]
    rows = {
        "system": row_systems,
        "M": np.array([systems[k].M for k in live]),
        "C": np.array([systems[k].C for k in live]),
        "K": np.array([systems[k].K for k in live]),
        "A_eff": np.array([terms[k].A_eff for k in live]),
    }
    if any(terms[k].base is not None for k in live):
        # A row whose A_eff is singular has no base; its NaN factor fails
        # the screen of every rank-k inverse, so it is factored directly.
        rows["f_eff"] = np.array([np.full((n, n), np.nan) if terms[k].base is None
                                  else terms[k].base[1] for k in live])
    return rows


def integrate_rows(systems, x0s, v0s, t0, t_end, cfg: NewmarkConfig):
    """integrate for each of several systems of one n_dof.

    x0s and v0s hold each system's initial vectors.  Returns, per system,
    the Trajectory that integrate returns for it, bit for bit, or the
    exception that integrate raises for it, located in the same way.  A
    step runs the live rows in lock-step (_batched_step) while two or
    more are live and all share one batch_key that is not None
    (DynamicSystem.batch_key); otherwise each live row runs
    newmark._step_core.
    """
    if not -math.inf < t0 < t_end < math.inf:
        raise ValueError(f"t_end must exceed t0, both finite; got t0={t0!r}, "
                         f"t_end={t_end!r}")
    n_steps = int(round((t_end - t0) / cfg.dt))
    n_rows, n = len(systems), systems[0].n_dof
    xs = np.zeros((n_rows, n_steps + 1, n))
    vs = np.zeros((n_rows, n_steps + 1, n))
    accs = np.zeros((n_rows, n_steps + 1, n))
    iters = np.zeros((n_rows, n_steps + 1), dtype=int)
    res_norms = np.zeros((n_rows, n_steps + 1))
    out = [None] * n_rows

    # Each live row's last accepted State; empty after a batched step, whose
    # rows' states are X, V and A.
    states, terms = {}, {}
    for k, sys in enumerate(systems):
        try:
            x0 = np.asarray(x0s[k], dtype=float)
            v0 = np.asarray(v0s[k], dtype=float)
            state = State(t0, x0, v0, newmark.initial_acceleration(sys, x0, v0, t0))
            xs[k, 0], vs[k, 0], accs[k, 0] = state.x, state.v, state.a
            terms[k] = newmark.solve_terms(sys, cfg)
        except Exception as err:
            out[k] = err
        else:
            states[k] = state
    live = list(states)
    keys = {systems[k].batch_key for k in live}
    batched = len(keys) == 1 and None not in keys
    rows = None
    t = t0
    for i in range(1, n_steps + 1):
        if not live:
            break
        t1 = t + cfg.dt
        step = None
        if batched and len(live) > 1:
            if rows is None:
                rows, idx = _stack(systems, terms, live), np.array(live)
            if states:  # the last step ran row by row
                X, V, A = xs[idx, i - 1], vs[idx, i - 1], accs[idx, i - 1]
            try:
                step = _batched_step(rows, terms[live[0]].seeds, X, V, A, t1, cfg)
            except Exception:  # the step is run again row by row below
                pass
        if step is not None:
            X, V, A, iters[idx, i], res_norms[idx, i] = step
            xs[idx, i], vs[idx, i], accs[idx, i] = X, V, A
            states.clear()
        else:
            still = []
            for k in live:
                start = states.get(k)
                if start is None:  # row k's last step ran batched
                    start = State(t, xs[k, i - 1], vs[k, i - 1], accs[k, i - 1])
                try:
                    s, iters[k, i], res_norms[k, i] = newmark._step_core(
                        systems[k], start, cfg, terms[k], step_index=i)
                except Exception as err:
                    _locate(err, i, start, cfg)
                    out[k] = err
                    continue
                states[k] = s
                xs[k, i], vs[k, i], accs[k, i] = s.x, s.v, s.a
                still.append(k)
            if len(still) < len(live):
                live, rows = still, None
        t = t1

    t_grid = t0 + cfg.dt * np.arange(n_steps + 1)
    for k in live:
        out[k] = Trajectory(t=t_grid, x=xs[k], v=vs[k], a=accs[k],
                            iterations=iters[k], residual_norms=res_norms[k])
    return out


def _locate(err, i, state, cfg):
    """Mark err as raised in step i, which advanced from the State state."""
    t1 = state.t + cfg.dt
    err.step_index, err.t, err.state = i, t1, state
    if hasattr(err, "add_note"):  # Python >= 3.11
        err.add_note(f"in Newmark step {i}, advancing from t = "
                     f"{state.t!r} to t = {t1!r}")
