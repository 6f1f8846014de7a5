"""Lock-step Newmark integration of systems that share a batch_key.

integrate_rows runs newmark's step for several systems at once, for
example the speeds of a sweep: each Newton iteration makes one
residual, Jacobian, factor and solve call over the stacked rows still
iterating, and a row leaves the step once it converges.  The strategy
rules and the convergence tests are newmark's own, and every batched
call reproduces the one-row bits, so each row's trajectory, and any
error it raises, is the one integrate gives it.

The layer calls go through newmark's namespace, where integrate finds
them too.
"""

from __future__ import annotations

import numpy as np

from . import ad, newmark
from .linalg import SingularMatrixError, norm2
from .newmark import (
    BROYDEN_RANK1,
    NewmarkConfig,
    NonConvergenceError,
    SingularJacobianError,
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


def _step_rows(rows, seeds, X, V, A, t, cfg, step_index):
    """_step_core of every row of a batch, in lock-step.

    rows maps "system", "M", "C", "K", "A_eff" and, where the rows'
    Jacobians are factored against A_eff, its factor "f_eff" to arrays
    over the B rows; seeds are the rows' shared SolveTerms.seeds.  X, V,
    A are their (B, n) states at time t.  Each Newton
    iteration makes one batched call per layer over the rows still
    iterating.  A batched call that raises is repeated row by row with
    the one-row functions, and a row that raises there leaves the step
    with that error.  Returns (t1, X1, V1, A1, iterations, residual
    norms, errors), errors mapping a row to the exception _step_core
    raises for it; the other outputs of such a row are meaningless.
    """
    n_rows = len(X)
    t1 = t + cfg.dt
    c_a, g_a, c_v, g_v = _map_terms(X, V, A, cfg)
    out_x, out_rn = X.copy(), np.zeros(n_rows)
    out_iters = np.zeros(n_rows, dtype=int)
    errors = {}
    # The rows still iterating; every entry is indexed by row first.
    live = dict(rows, row=np.arange(n_rows), g_a=g_a, g_v=g_v, x=X.copy())
    iters = 0

    def keep(mask):
        """Keep the live rows in mask; False when none is left."""
        if mask.all():
            return True
        for name, value in live.items():
            live[name] = value[mask]
        return bool(mask.any())

    def terms():
        return StepTerms(t1, c_a, live["g_a"], c_v, live["g_v"], live["q1"])

    def row_terms(j):
        """(x1, StepTerms, system) of live row j for the one-row functions."""
        p = StepTerms(t1, c_a, live["g_a"][j], c_v, live["g_v"][j], live["q1"][j])
        return live["x"][j], p, live["system"][j]

    def jac_terms(j=slice(None)):
        """SolveTerms of live row j, or of every live row, stacked."""
        base = None
        if "f_eff" in live:
            base = (live["A_eff"][j], live["f_eff"][j], live["system"][0].nl_dofs)
        return SolveTerms(live["A_eff"][j], seeds, base)

    def call(batched, one_row):
        """batched(), or one_row(j) for each live row if it raises.

        Rows that raise one by one are dropped with their errors.
        Returns None when no row is left.
        """
        if batched is not None:
            try:
                return batched()
            except Exception:
                pass
        out, ok = [], np.ones(len(live["row"]), dtype=bool)
        for j in range(len(ok)):
            try:
                out.append(one_row(j))
            except Exception as err:
                errors[live["row"][j]] = err
                ok[j] = False
        return np.array(out) if keep(ok) else None

    def fail(mask, res_norms):
        if not mask.any():
            return True
        for row, rn in zip(live["row"][mask], res_norms[mask]):
            errors[row] = NonConvergenceError(
                step_index, iters, float(rn), float("nan"))
        return keep(~mask)

    def done(mask):
        """Accept the rows in mask at the current x; False when none is left."""
        if not mask.any():
            return True
        rows_done = live["row"][mask]
        out_x[rows_done] = live["x"][mask]
        out_iters[rows_done] = iters
        out_rn[rows_done] = live["rn"][mask]
        return keep(~mask)

    def singular(fn, *args):
        try:
            return fn(*args)
        except SingularMatrixError as err:
            raise SingularJacobianError(step_index, err.pivot_index) from err

    def evaluate():
        """Residuals and norms of the live rows; a non-finite one ends its row."""
        R = call(lambda: _residual_rows(live["x"], terms(), live),
                 lambda j: newmark.residual(*row_terms(j)))
        if R is None:
            return False
        live["R"] = R
        live["rn"] = norm2(R)
        return fail(~np.isfinite(live["rn"]), live["rn"])

    live["q1"] = call(lambda: np.array([sys.Q(t1) for sys in live["system"]]),
                      lambda j: live["system"][j].Q(t1))
    running = (live["q1"] is not None and evaluate()
               and done(live["rn"] < cfg.tol_res))
    while running:
        if iters >= cfg.max_iter:
            fail(np.ones(len(live["row"]), dtype=bool), live["rn"])
            break
        if _refresh_due(cfg, "lu" in live, iters):
            live["J"] = call(
                lambda: newmark.step_jacobian(
                    live["x"], terms(), live["system"][0], jac_terms()),
                lambda j: newmark.step_jacobian(*row_terms(j), jac_terms(j)),
            )
            if live["J"] is None:
                break
            live["lu"] = call(
                lambda: singular(newmark.lu_factor, live["J"], jac_terms().base),
                lambda j: singular(newmark.lu_factor, live["J"][j], jac_terms(j).base))
            del live["J"]
            if live["lu"] is None:
                break
        live["dx"] = newmark.lu_solve(live["lu"], live["R"])
        live["x"] = live["x"] - live["dx"]
        iters += 1
        if not evaluate():
            break
        if not done(_small_step(norm2(live["dx"]), norm2(live["x"]), cfg)):
            break
        if cfg.strategy == BROYDEN_RANK1:
            # The good Broyden update of _step_core, skipped where dx = 0.
            dd = ad.dot(live["dx"], live["dx"])

            def update(j):
                if dd[j, 0] > 0.0:
                    return singular(newmark.lu_update, live["lu"][j],
                                    live["R"][j] / dd[j, 0], -live["dx"][j])
                return live["lu"][j]

            def update_all():
                return singular(newmark.lu_update, live["lu"], live["R"] / dd,
                                -live["dx"])

            live["lu"] = call(update_all if (dd > 0.0).all() else None, update)
            if live["lu"] is None:
                break
        running = done(live["rn"] < cfg.tol_res)
    return (t1, out_x, c_v * out_x + g_v, c_a * out_x + g_a, out_iters, out_rn,
            errors)


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
    row_systems = np.empty(len(live), dtype=object)
    row_systems[:] = [systems[k] for k in live]
    terms = [newmark.solve_terms(systems[k], cfg) for k in live]
    rows = {
        "system": row_systems,
        "M": np.array([systems[k].M for k in live]),
        "C": np.array([systems[k].C for k in live]),
        "K": np.array([systems[k].K for k in live]),
        "A_eff": np.array([s.A_eff for s in terms]),
    }
    if any(s.base is not None for s in terms):
        # A row whose A_eff is singular has no base; its NaN factor fails
        # the screen of every rank-k inverse, so it is factored directly.
        rows["f_eff"] = np.array([np.full((n, n), np.nan) if s.base is None
                                  else s.base[1] for s in terms])
    seeds = terms[0].seeds if terms else None
    X, V, A = xs[live, 0], vs[live, 0], accs[live, 0]
    t = t0
    for i in range(1, n_steps + 1):
        if not len(live):
            break
        t1, X, V, A, it, rn, errors = _step_rows(rows, seeds, X, V, A, t, cfg, i)
        if errors:
            ok = np.ones(len(live), dtype=bool)
            for j, err in errors.items():
                # The rows that raised have not moved from their start of step.
                _locate(err, i, State(t, xs[live[j], i - 1], vs[live[j], i - 1],
                                      accs[live[j], i - 1]), cfg)
                out[live[j]] = err
                ok[j] = False
            X, V, A, it, rn, live = X[ok], V[ok], A[ok], it[ok], rn[ok], live[ok]
            rows = {name: value[ok] for name, value in rows.items()}
        xs[live, i], vs[live, i], accs[live, i] = X, V, A
        iters[live, i], res_norms[live, i] = it, rn
        t = t1

    t_grid = t0 + cfg.dt * np.arange(n_steps + 1)
    for k in live:
        out[k] = Trajectory(t=t_grid, x=xs[k], v=vs[k], a=accs[k],
                            iterations=iters[k], residual_norms=res_norms[k])
    return out
