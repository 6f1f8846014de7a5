"""Lock-step Newmark integration of systems that share a batch_key.

integrate_rows runs newmark's step for several systems at once, for
example the speeds of a sweep: each Newton iteration makes one
residual, Jacobian, factor and solve call over the stacked rows still
iterating, and a row leaves the step once it converges.  The strategy
rules and the convergence tests are newmark's own, and every batched
call reproduces the one-row bits, so each row's trajectory is the one
integrate gives it.

The batched step runs only the clean case.  When a row faults in step
i (a layer raises, a residual is not finite, max_iter is reached or a
Broyden step is zero), step i is run again for every row with
newmark._step_core, the step integrate runs: a row that raises there
leaves with that error, located as integrate locates it, and the other
rows go on batched from step i + 1.

The layer calls go through newmark's namespace, where integrate finds
them too.
"""

from __future__ import annotations

import numpy as np

from . import ad, newmark
from .linalg import norm2
from .newmark import (
    BROYDEN_RANK1,
    NewmarkConfig,
    SolveTerms,
    StepTerms,
    _locate,
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


def integrate_rows(systems, x0s, v0s, t0, t_end, cfg: NewmarkConfig):
    """integrate for each of several systems, in lock-step.

    The systems share a batch_key and n_dof (DynamicSystem.batch_key);
    x0s and v0s hold each one's initial vectors.  Returns, per system,
    the Trajectory that integrate returns for it, bit for bit, or the
    exception that integrate raises for it, located in the same way.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    n_steps = int(round((t_end - t0) / cfg.dt))
    n_rows, n = len(systems), systems[0].n_dof
    xs = np.zeros((n_rows, n_steps + 1, n))
    vs = np.zeros((n_rows, n_steps + 1, n))
    accs = np.zeros((n_rows, n_steps + 1, n))
    iters = np.zeros((n_rows, n_steps + 1), dtype=int)
    res_norms = np.zeros((n_rows, n_steps + 1))
    out = [None] * n_rows

    started = []
    for k, sys in enumerate(systems):
        try:
            x0 = np.asarray(x0s[k], dtype=float)
            v0 = np.asarray(v0s[k], dtype=float)
            state = State(t0, x0, v0, newmark.initial_acceleration(sys, x0, v0, t0))
            xs[k, 0], vs[k, 0], accs[k, 0] = state.x, state.v, state.a
            started.append(k)
        except Exception as err:
            out[k] = err
    live = np.array(started, dtype=int)
    terms = {k: newmark.solve_terms(systems[k], cfg) for k in started}
    row_systems = np.empty(len(live), dtype=object)
    row_systems[:] = [systems[k] for k in live]
    rows = {
        "system": row_systems,
        "M": np.array([systems[k].M for k in live]),
        "C": np.array([systems[k].C for k in live]),
        "K": np.array([systems[k].K for k in live]),
        "A_eff": np.array([terms[k].A_eff for k in live]),
    }
    if any(s.base is not None for s in terms.values()):
        # A row whose A_eff is singular has no base; its NaN factor fails
        # the screen of every rank-k inverse, so it is factored directly.
        rows["f_eff"] = np.array([np.full((n, n), np.nan) if s.base is None
                                  else s.base[1] for s in terms.values()])
    seeds = terms[started[0]].seeds if started else None
    X, V, A = xs[live, 0], vs[live, 0], accs[live, 0]
    t = t0
    for i in range(1, n_steps + 1):
        if not len(live):
            break
        t1 = t + cfg.dt
        try:
            step = _batched_step(rows, seeds, X, V, A, t1, cfg)
        except Exception:  # the step is run again row by row below
            step = None
        if step is None:
            ok = np.ones(len(live), dtype=bool)
            for j, k in enumerate(live):
                start = State(t, X[j], V[j], A[j])
                try:
                    s, iters[k, i], res_norms[k, i] = newmark._step_core(
                        systems[k], start, cfg, terms[k], step_index=i)
                except Exception as err:
                    _locate(err, i, start, cfg)
                    out[k], ok[j] = err, False
                else:
                    xs[k, i], vs[k, i], accs[k, i] = s.x, s.v, s.a
            live = live[ok]
            rows = {name: value[ok] for name, value in rows.items()}
            X, V, A = xs[live, i], vs[live, i], accs[live, i]
        else:
            X, V, A, iters[live, i], res_norms[live, i] = step
            xs[live, i], vs[live, i], accs[live, i] = X, V, A
        t = t1

    t_grid = t0 + cfg.dt * np.arange(n_steps + 1)
    for k in live:
        out[k] = Trajectory(t=t_grid, x=xs[k], v=vs[k], a=accs[k],
                            iterations=iters[k], residual_norms=res_norms[k])
    return out
