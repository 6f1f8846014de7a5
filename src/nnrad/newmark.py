"""Implicit Newmark time stepping with Newton-Raphson corrector.

Each step solves the displacement update of the discretized equation of
motion by Newton iteration.  The iteration Jacobian is the constant
linear part c_a M + c_v C + K, built once per integration, plus the
forward-mode AD derivative of the nonlinear force in the DOFs it reads,
so arbitrary nonlinear forces need no hand-derived tangent.  The three
iteration strategies run one loop and differ only in when the factor is
refreshed from a new Jacobian and whether it is updated in between:
every iteration (full Newton), once per step (simplified Newton), or
once per step and once more past half of max_iter, with a Broyden rank-1
secant update of the factor at each iteration in between (broyden).
What a step holds fixed, the offsets of the Newmark maps from x1 to v1
and a1 and the load Q(t1), is built once per step (StepTerms), so every
residual and Jacobian of the step shares it.  What a solve holds fixed,
A_eff, the AD seeds of the nonlinear DOFs and, when F_nl reads at most
half of the DOFs, the factor of A_eff that lu_factor updates by the
Jacobian's k nonlinear columns, is built once per solve (SolveTerms).

_step_core is the one Newton step.  It runs one row on 1-D arrays, or
the rows of systems that share a batch_key in lock-step on (B, n)
arrays, each row with the bits of its own one-row call.  integrate is
nnrad.lockstep.integrate_rows on one system; that module holds the one
time-stepping driver.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import ad
from .linalg import SingularMatrixError, lu_factor, lu_solve, lu_update, norm2
from .system import DynamicSystem, State, Trajectory

__all__ = [
    "FULL_NEWTON",
    "SIMPLIFIED_NEWTON",
    "BROYDEN_RANK1",
    "STRATEGIES",
    "NewmarkConfig",
    "NonConvergenceError",
    "SingularJacobianError",
    "StepTerms",
    "step_terms",
    "SolveTerms",
    "solve_terms",
    "residual",
    "step_matrix",
    "step_jacobian",
    "initial_acceleration",
    "step",
    "integrate",
]

FULL_NEWTON = "full"
SIMPLIFIED_NEWTON = "simplified"
BROYDEN_RANK1 = "broyden"
STRATEGIES = (FULL_NEWTON, SIMPLIFIED_NEWTON, BROYDEN_RANK1)


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to meet either convergence criterion."""

    def __init__(self, step_index, iterations, res_norm, dx_norm):
        self.step_index = step_index
        self.iterations = iterations
        self.res_norm = res_norm
        self.dx_norm = dx_norm
        super().__init__(
            f"Newton iteration did not converge at step {step_index} "
            f"after {iterations} iterations "
            f"(|R|={res_norm:.3e}, |dx|={dx_norm:.3e})"
        )


class SingularJacobianError(RuntimeError):
    def __init__(self, step_index, pivot_index):
        self.step_index = step_index
        self.pivot_index = pivot_index
        super().__init__(
            f"Jacobian singular at step {step_index} (pivot {pivot_index})"
        )


@dataclass
class NewmarkConfig:
    """Newmark parameters, step size, and Newton iteration controls.

    beta=1/4, gamma=1/2 is the unconditionally stable average-acceleration
    scheme.  Convergence accepts on EITHER |dx| < tol_dx*(1+|x|) OR
    |R| < tol_res.
    """

    dt: float
    beta: float = 0.25
    gamma: float = 0.5
    tol_dx: float = 1e-10
    tol_res: float = 1e-8
    max_iter: int = 50
    strategy: str = FULL_NEWTON

    def __post_init__(self):
        for name in ("dt", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        for name in ("tol_dx", "tol_res"):
            # A NaN tolerance would stop no step and fail none.
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}"
            )
        if self.gamma < 0.5 or self.beta < self.gamma / 2.0:
            warnings.warn(
                "gamma < 1/2 or beta < gamma/2: scheme is not unconditionally "
                "stable",
                stacklevel=2,
            )


def _newmark_coeffs(cfg):
    b, g, dt = cfg.beta, cfg.gamma, cfg.dt
    c_a = 1.0 / (b * dt * dt)  # x1 coefficient in the acceleration update
    c_v = g / (b * dt)  # x1 coefficient in the velocity update
    return c_a, c_v


class StepTerms(NamedTuple):
    """What a step from a State holds fixed: t1, the Newmark maps and Q(t1).

    The Newmark update gives the acceleration and velocity at t1 as
    affine maps of the trial displacement x1, a1 = c_a x1 + g_a and
    v1 = c_v x1 + g_v, whose offsets depend only on the step's start.
    """

    t1: float
    c_a: float
    g_a: np.ndarray
    c_v: float
    g_v: np.ndarray
    q1: np.ndarray

    def acceleration(self, x1):
        """Acceleration at t1 implied by the trial displacement x1."""
        return self.c_a * x1 + self.g_a

    def velocity(self, x1):
        """Velocity at t1 implied by the trial displacement x1."""
        return self.c_v * x1 + self.g_v

    def take(self, keep):
        """The StepTerms of the rows keep of stacked StepTerms."""
        return self._replace(g_a=self.g_a[keep], g_v=self.g_v[keep], q1=self.q1[keep])


def _step_terms(x, v, a, t1, q1, cfg):
    """The StepTerms of the step from (x, v, a) to t1 with load q1; rows too."""
    c_a, c_v = _newmark_coeffs(cfg)
    b, g, dt = cfg.beta, cfg.gamma, cfg.dt
    g_a = c_a * (-x) - v / (b * dt) - (0.5 / b - 1.0) * a
    g_v = c_v * (-x) + (1.0 - g / b) * v + (1.0 - g / (2.0 * b)) * dt * a
    return StepTerms(t1, c_a, g_a, c_v, g_v, q1)


def step_terms(sys: DynamicSystem, s: State, cfg: NewmarkConfig) -> StepTerms:
    """The StepTerms of the step from s to t1 = s.t + dt."""
    t1 = s.t + cfg.dt
    return _step_terms(s.x, s.v, s.a, t1, sys.Q(t1), cfg)


def residual(x1, p: StepTerms, sys: DynamicSystem):
    """Step residual R(x1) whose root advances the trajectory to p.t1.

    R = M a1 + C v1 + K x1 + F_nl(x1, v1, a1, t1) - Q(t1) with a1, v1
    from the Newmark maps of p.  Accepts a float vector or an ADArray;
    the latter yields seeds for the Jacobian.  With (B, n) rows x1,
    stacked StepTerms and a stacked sys (_step_core), the result is the
    (B, n) rows of each row's residual, with its bits.
    """
    x1 = ad.stack(x1)
    a1 = p.acceleration(x1)
    v1 = p.velocity(x1)
    if sys.M.ndim > 2:
        lin = ad.matvec(sys.M, a1) + ad.matvec(sys.C, v1) + ad.matvec(sys.K, x1)
    else:
        lin = sys.M @ a1 + sys.C @ v1 + sys.K @ x1
    return lin + ad.stack(sys.F_nl(x1, v1, a1, p.t1)) - p.q1


def step_matrix(sys: DynamicSystem, cfg: NewmarkConfig):
    """A_eff = c_a M + c_v C + K: the step Jacobian of the linear terms."""
    c_a, c_v = _newmark_coeffs(cfg)
    return c_a * sys.M + c_v * sys.C + sys.K


class SolveTerms(NamedTuple):
    """What every step Jacobian of a solve shares.

    The step Jacobian is A_eff plus the AD derivative of F_nl in the k
    columns sys.nl_dofs.  seeds are the constant seeds of x1, v1 and a1
    on those DOFs: S = I[:, nl_dofs], c_v S and c_a S.  base is
    (A_eff, lu_factor(A_eff), nl_dofs) when 2k <= n, so that lu_factor
    inverts the Jacobian as a rank-k update of A_eff (linalg), and None
    otherwise or when A_eff is singular.
    """

    A_eff: np.ndarray
    seeds: tuple
    base: Optional[tuple]

    def take(self, keep):
        """The SolveTerms of the rows keep of stacked SolveTerms."""
        A_eff = self.A_eff[keep]
        base = self.base and (A_eff, self.base[1][keep], self.base[2])
        return self._replace(A_eff=A_eff, base=base)


def solve_terms(sys: DynamicSystem, cfg: NewmarkConfig) -> SolveTerms:
    """The SolveTerms of sys under cfg."""
    A_eff = step_matrix(sys, cfg)
    c_a, c_v = _newmark_coeffs(cfg)
    cols = sys.nl_dofs
    S = np.eye(sys.n_dof)[:, cols]
    base = None
    if 2 * len(cols) <= sys.n_dof:
        try:
            base = (A_eff, lu_factor(A_eff), cols)
        except SingularMatrixError:
            pass
    return SolveTerms(A_eff, (S, c_v * S, c_a * S), base)


def step_jacobian(x1, p: StepTerms, sys: DynamicSystem, terms: SolveTerms):
    """dR/dx1: A_eff plus the AD derivative of F_nl in the DOFs it reads.

    Only sys.nl_dofs are seeded.  Through the Newmark maps a
    displacement seed e_j carries the velocity seed c_v e_j and the
    acceleration seed c_a e_j, so one forward pass of F_nl, with those
    seeds of terms (SolveTerms), gives dF/dx + c_v dF/dv + c_a dF/da
    for those columns.  When F_nl reads every DOF (nl_dofs is sorted, so
    the derivative then has width n), J is A_eff plus that derivative,
    with no copy of A_eff and no column scatter.

    With (B, n) rows x1, stacked StepTerms and a (B, n, n) stack
    terms.A_eff, sys.F_nl must take rows (DynamicSystem.batch_key); the
    result is the (B, n, n) stack of each row's Jacobian.
    """

    def f_nl(x, v, a):
        return sys.F_nl(x, v, a, p.t1)

    dF = ad.jacobian(f_nl, (x1, p.velocity(x1), p.acceleration(x1)), terms.seeds)
    if dF.shape[-1] == terms.A_eff.shape[-1]:
        return terms.A_eff + dF
    J = terms.A_eff.copy()
    J[..., sys.nl_dofs] += dF
    return J


def initial_acceleration(sys: DynamicSystem, x0, v0, t0=0.0):
    """Acceleration consistent with the equation of motion at t0.

    Direct mass-matrix solve when F_nl is acceleration-independent;
    otherwise Newton iteration on the acceleration with an AD Jacobian.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    rhs_static = -sys.C @ v0 - sys.K @ x0 + sys.Q(t0)
    if not sys.accel_dependent:
        f = np.asarray(sys.F_nl(x0, v0, np.zeros(sys.n_dof), t0), dtype=float)
        return lu_solve(lu_factor(sys.M), rhs_static - f)

    def g(a):
        return sys.M @ a + ad.stack(sys.F_nl(x0, v0, a, t0)) - rhs_static

    a = np.zeros(sys.n_dof)
    for _ in range(50):
        r = g(a)
        if norm2(r) < 1e-10 * (1.0 + norm2(rhs_static)):
            return a
        J = ad.jacobian(g, a)
        da = lu_solve(lu_factor(J), r)
        a = a - da
        if norm2(da) < 1e-12 * (1.0 + norm2(a)):
            return a
    raise NonConvergenceError(-1, 50, norm2(g(a)), float("nan"))


def _refresh_due(cfg, have_factor, iters):
    """Whether the factor is refreshed from a new Jacobian at iteration iters.

    Full Newton refreshes every iteration, simplified once per step,
    Broyden once more past half of max_iter.
    """
    return (
        not have_factor
        or cfg.strategy == FULL_NEWTON
        or (cfg.strategy == BROYDEN_RANK1 and iters == cfg.max_iter // 2 + 1)
    )


def _step_core(sys, x, v, a, t1, cfg, terms, step_index=0):
    """One Newmark step from x, v, a to t1: (x1, v1, a1, iterations, |R|).

    One row takes 1-D x, v and a.  B rows take (B, n) arrays, with sys a
    stacked view of B systems that share a batch_key and terms their
    stacked SolveTerms (lockstep): every Newton iteration then makes one
    call per layer over the rows still iterating, a row leaves the loop
    as it converges, and the results are stacked, each row with the bits
    of its own call.  A non-finite residual or reaching max_iter raises
    NonConvergenceError, a singular factor SingularJacobianError.  In
    rows a zero Broyden step, which one row skips, raises
    NonConvergenceError too.
    """
    p = start = _step_terms(x, v, a, t1, sys.Q(t1), cfg)
    rows = x.ndim > 1
    if rows:  # each row's result, written as it leaves the loop
        out_x, live = x.copy(), np.arange(len(x))
        out_iters, out_rn = np.zeros(len(x), dtype=int), np.zeros(len(x))
    iters, lu, dx = 0, None, None

    def worst(rn):
        """The largest norm: NaN if one is NaN, else inf if one is inf."""
        return rn.max() if rows else rn

    def evaluate(x):
        """Residual and its norm; a non-finite one ends the step at once."""
        R = residual(x, p, sys)
        rn = norm2(R)
        if not math.isfinite(worst(rn)):
            raise NonConvergenceError(step_index, iters, worst(rn), float("nan"))
        return R, rn

    def factor(fn, *args):
        """lu_factor or lu_update, a singular result as SingularJacobianError."""
        try:
            return fn(*args)
        except SingularMatrixError as err:
            raise SingularJacobianError(step_index, err.pivot_index) from err

    R, rn = evaluate(x)
    done = rn < cfg.tol_res
    while True:
        if not rows:
            if done:
                break
        elif done.any():
            left = live[done]
            out_x[left], out_iters[left], out_rn[left] = x[done], iters, rn[done]
            if done.all():
                break
            keep = ~done
            x, R, rn, live = x[keep], R[keep], rn[keep], live[keep]
            if lu is not None:
                lu, dx = lu[keep], dx[keep]
            p, sys, terms = p.take(keep), sys.take(keep), terms.take(keep)
        if iters >= cfg.max_iter:
            raise NonConvergenceError(step_index, iters, worst(rn), float("nan"))
        if _refresh_due(cfg, lu is not None, iters):
            lu = factor(lu_factor, step_jacobian(x, p, sys, terms), terms.base)
        elif cfg.strategy == BROYDEN_RANK1:
            # Good Broyden update J += (dR - J dx') dx'^T / |dx'|^2 with
            # dx' = -dx; since J dx = R_old, dR - J dx' is the new R.  One
            # row skips a zero dx; rows fault on one.
            dd = ad.dot(dx, dx) if rows else float(dx @ dx)
            if rows and not (dd > 0.0).all():
                raise NonConvergenceError(step_index, iters, worst(rn), 0.0)
            if rows or dd > 0.0:
                lu = factor(lu_update, lu, R / dd, -dx)
        dx = lu_solve(lu, R)
        x = x - dx
        iters += 1
        R, rn = evaluate(x)
        done = (norm2(dx) < cfg.tol_dx * (1.0 + norm2(x))) | (rn < cfg.tol_res)
    if rows:
        x, iters, rn = out_x, out_iters, out_rn
    return x, start.velocity(x), start.acceleration(x), iters, rn


def step(sys: DynamicSystem, s: State, cfg: NewmarkConfig) -> State:
    """Advance one time step; raises on non-convergence or singular Jacobian."""
    t1 = s.t + cfg.dt
    x, v, a, _, _ = _step_core(sys, s.x, s.v, s.a, t1, cfg, solve_terms(sys, cfg))
    return State(t1, x, v, a)


def integrate(
    sys: DynamicSystem, x0, v0, t0, t_end, cfg: NewmarkConfig
) -> Trajectory:
    """Integrate from t0 to t_end on the uniform grid t0 + i*dt.

    An exception raised in step i, by the model or by the Newton loop,
    leaves with its type unchanged and carries ``step_index`` (i), ``t``
    (the time step i advances to) and ``state`` (the last accepted
    State), plus, on Python >= 3.11, a note that names the step and the
    time.
    """
    from .lockstep import integrate_rows  # lockstep imports this module

    out = integrate_rows([sys], [x0], [v0], t0, t_end, cfg)[0]
    if isinstance(out, Exception):
        raise out
    return out
