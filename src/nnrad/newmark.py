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
An iterate whose Jacobian the next iteration factors is evaluated by
linearize, R and the Jacobian's AD block from one pass, and any other
by the float residual.  What a step holds fixed, the offsets of the
Newmark maps from x1 to v1 and a1 and the load Q(t1), is built once per
step (StepTerms), so every residual and Jacobian of the step shares it;
for every system with sites, whose forces read x1 and at most v1, so is
the offset h of the linear part A_eff x1 + h.  What a solve holds fixed,
the Newmark coefficients, the AD seeds of the force and A_eff's
linalg.RankKBase, is built once per solve (SolveTerms).
lu_factor(D, base) factors A_eff plus linearize's block D by the route
the base fixes: a lazy Woodbury factor on A_eff's factor, which forms no
n x n matrix, that factor itself when F_nl reads no DOF, or a direct
inverse.

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
from .linalg import (RankKBase, SingularMatrixError, lu_factor, lu_solve, lu_update,
                     norm2, rank_k_base)
from .system import DynamicSystem, State, Trajectory

__all__ = [
    "FULL_NEWTON",
    "SIMPLIFIED_NEWTON",
    "BROYDEN_RANK1",
    "STRATEGIES",
    "NewmarkConfig",
    "NonConvergenceError",
    "SingularJacobianError",
    "Coefficients",
    "StepTerms",
    "step_terms",
    "SolveTerms",
    "solve_terms",
    "residual",
    "step_matrix",
    "linearize",
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


class Coefficients(NamedTuple):
    """The coefficients of the Newmark maps under a NewmarkConfig.

    0-d arrays: one scales an array with the bits of its float, at about
    two thirds of a Python float's call cost.
    """

    c_a: np.ndarray  # 1 / (beta dt^2), x1's in the acceleration update
    c_v: np.ndarray  # gamma / (beta dt), x1's in the velocity update
    beta_dt: np.ndarray  # beta dt, which divides v in the acceleration offset
    a_a: np.ndarray  # 1 / (2 beta) - 1, a's in the acceleration offset
    v_v: np.ndarray  # 1 - gamma / beta, v's in the velocity offset
    a_v: np.ndarray  # (1 - gamma / (2 beta)) dt, a's in the velocity offset


def _newmark_coeffs(cfg):
    """The Coefficients of cfg."""
    b, g, dt = cfg.beta, cfg.gamma, cfg.dt
    return Coefficients(*map(np.array, (1.0 / (b * dt * dt), g / (b * dt), b * dt,
                                        0.5 / b - 1.0, 1.0 - g / b,
                                        (1.0 - g / (2.0 * b)) * dt)))


class StepTerms(NamedTuple):
    """What a step from a State holds fixed: t1, the Newmark maps and Q(t1).

    The Newmark update gives the acceleration and velocity at t1 as
    affine maps of the trial displacement x1, a1 = c_a x1 + g_a and
    v1 = c_v x1 + g_v, whose offsets depend only on the step's start.
    _step_core gives a system with sites also A_eff and the offset
    h = M g_a + C g_v - q1 (_offset_terms): its linear part less the load
    is then A_eff x1 + h, and its forces read x1 and at most v1.
    """

    t1: float
    c_a: np.ndarray
    g_a: np.ndarray
    c_v: np.ndarray
    g_v: np.ndarray
    q1: np.ndarray
    A_eff: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None

    def acceleration(self, x1):
        """Acceleration at t1 implied by the trial displacement x1."""
        return self.c_a * x1 + self.g_a

    def velocity(self, x1):
        """Velocity at t1 implied by the trial displacement x1."""
        return self.c_v * x1 + self.g_v


def _step_terms(x, v, a, t1, q1, k: Coefficients):
    """The StepTerms of the step from (x, v, a) to t1 with load q1, under
    the Newmark coefficients k; rows too."""
    nx = -x
    g_a = k.c_a * nx - v / k.beta_dt - k.a_a * a
    g_v = k.c_v * nx + k.v_v * v + k.a_v * a
    return StepTerms(t1, k.c_a, g_a, k.c_v, g_v, q1)


def _offset_terms(p: StepTerms, sys, A_eff):
    """p with A_eff and the offset h = M g_a + C g_v - q1 of sys; rows too."""
    h = ad.matvec(sys.M, p.g_a) + ad.matvec(sys.C, p.g_v) - p.q1
    return StepTerms(p.t1, p.c_a, p.g_a, p.c_v, p.g_v, p.q1, A_eff, h)


def step_terms(sys: DynamicSystem, s: State, cfg: NewmarkConfig) -> StepTerms:
    """The StepTerms of the step from s to t1 = s.t + dt, without an offset."""
    t1 = s.t + cfg.dt
    return _step_terms(s.x, s.v, s.a, t1, sys.Q(t1), _newmark_coeffs(cfg))


def _linear_part(x1, p: StepTerms, sys: DynamicSystem):
    """(lin, v1, a1) at x1.  lin is M a1 + C v1 + K x1, with a1 and v1 from
    p's maps; with p's offset, it is A_eff x1 + h, which holds -q1, a1 is
    None, and so is v1 unless the sites' law reads the rate."""
    if p.h is not None:
        v1 = p.velocity(x1) if sys.sites.rate else None
        return ad.matvec(p.A_eff, x1) + p.h, v1, None
    a1 = p.acceleration(x1)
    v1 = p.velocity(x1)
    if isinstance(x1, np.ndarray) and x1.ndim == 1:
        lin = sys.M.dot(a1) + sys.C.dot(v1) + sys.K.dot(x1)
    else:
        lin = ad.matvec(sys.M, a1) + ad.matvec(sys.C, v1) + ad.matvec(sys.K, x1)
    return lin, v1, a1


def residual(x1, p: StepTerms, sys: DynamicSystem):
    """Step residual R(x1) whose root advances the trajectory to p.t1.

    R = M a1 + C v1 + K x1 + F_nl(x1, v1, a1, t1) - Q(t1) with a1, v1
    from the Newmark maps of p.  With p's offset (StepTerms), R is
    (A_eff x1 + h) + F_nl(x1, v1, None, t1), v1 None unless the sites'
    law reads the rate.  Accepts a float vector or an ADArray; the latter
    yields seeds for the Jacobian.  With (B, n) rows x1, stacked StepTerms
    and a stacked sys (_step_core), the result is the (B, n) rows of each
    row's residual, with its bits.
    """
    x1 = ad.stack(x1)
    lin, v1, a1 = _linear_part(x1, p, sys)
    R = lin + ad.stack(sys.F_nl(x1, v1, a1, p.t1))
    return R if p.h is not None else R - p.q1


def step_matrix(sys: DynamicSystem, cfg: NewmarkConfig):
    """A_eff = c_a M + c_v C + K: the step Jacobian of the linear terms."""
    k = _newmark_coeffs(cfg)
    return k.c_a * sys.M + k.c_v * sys.C + sys.K


class SolveTerms(NamedTuple):
    """What every step Jacobian of a solve shares.

    The step Jacobian is J = A_eff + P D Q^T: D is the AD block of F_nl
    in the k columns sys.nl_dofs, on the rows nl_dofs for sites and on
    every row otherwise.  base is A_eff's linalg.RankKBase on those rows
    and columns, with base.B = A_eff: linearize returns D, base.matrix(D)
    forms J and lu_factor(D, base) factors it.  base.f_B is
    lu_factor(A_eff) where a rank-k update pays, k = 0 or 2k <= n with
    A_eff regular, and None otherwise.  seeds, read-only, are the seeds
    S, c_v S and c_a S of x1, v1 and a1, S = I[:, nl_dofs], or, for
    Sites.evaluate, of sites' u and du, S = I_m per site.  k holds the
    Newmark coefficients.
    """

    seeds: tuple
    base: RankKBase
    k: Coefficients


def solve_terms(sys: DynamicSystem, cfg: NewmarkConfig) -> SolveTerms:
    """The SolveTerms of sys under cfg, built once per solve."""
    A_eff = step_matrix(sys, cfg)
    k = _newmark_coeffs(cfg)
    cols, sites = sys.nl_dofs, sys.sites
    S = np.eye(sys.n_dof)[:, cols] if sites is None else np.tile(
        np.eye(sites.width), (len(sites.matrix(0.0)) // sites.width, 1))
    f_B = None
    if 2 * len(cols) <= sys.n_dof:
        try:
            f_B = lu_factor(A_eff)
        except SingularMatrixError:
            pass
    seeds = (S, k.c_v * S, k.c_a * S)
    for s in seeds:
        s.flags.writeable = False
    rows = cols if sites is not None else np.arange(sys.n_dof)
    return SolveTerms(seeds, rank_k_base(A_eff, f_B, rows, cols), k)


def linearize(x1, p: StepTerms, sys: DynamicSystem, terms: SolveTerms):
    """(R, D) at x1 from one forward pass: R with the bits of residual, and
    D the block of dR/dx1 = A_eff + dF on terms.base's rows and columns
    (SolveTerms); terms.base.matrix(D) is the Jacobian and
    lu_factor(D, terms.base) its factor, and linearize forms neither.

    F_nl runs once on x1, v1 and a1 with the seeds S, c_v S and c_a S of
    terms, as the Newmark maps carry a displacement seed e_j into c_v e_j
    and c_a e_j: its seeds, dF/dx + c_v dF/dv + c_a dF/da, are D.  Sites
    give F and D themselves (Sites.evaluate), from one pass of their law
    seeded with S and c_v S.  With no nl_dofs, or a force without seeds,
    D is a zero block.  With (B, n) rows x1, stacked StepTerms and stacked
    SolveTerms, F_nl (or the law) must take rows (DynamicSystem.batch_key);
    R and D hold each row's.
    """
    lin, v1, a1 = _linear_part(x1, p, sys)
    cols, sites, D = sys.nl_dofs, sys.sites, None
    if not len(cols):
        F = ad.stack(sys.F_nl(x1, v1, a1, p.t1))
    elif sites is not None:
        F, D = sites.evaluate(x1, v1, p.t1, cols, terms.seeds)
    else:
        S, S_v, S_a = terms.seeds
        F = ad.stack(sys.F_nl(ad._seeded(x1, S), ad._seeded(v1, S_v),
                              ad._seeded(a1, S_a), p.t1))
        if isinstance(F, ad.ADArray):
            D = F.seeds
    R = lin + ad.value_of(F)
    if p.h is None:
        R = R - p.q1
    return R, np.zeros_like(terms.base.block) if D is None else D


def step_jacobian(x1, p: StepTerms, sys: DynamicSystem, terms: SolveTerms):
    """dR/dx1 at x1, formed: base.matrix of linearize's block."""
    return terms.base.matrix(linearize(x1, p, sys, terms)[1])


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


def _step_core(sys, x, v, a, t1, cfg, terms, step_index=0):
    """One Newmark step from x, v, a to t1: (x1, v1, a1, iterations, |R|).

    One row takes 1-D x, v and a.  B rows take (B, n) arrays, with sys a
    stacked view of B systems that share a batch_key and terms their
    stacked SolveTerms (lockstep): every Newton iteration then makes one
    call per layer over all B rows until every row has converged.  A
    converged row takes zero steps, so its iterate and residual keep the
    bits they had when it converged, and its iterations count only those
    it was live; each row has the bits of its own one-row call.  A
    non-finite residual, a zero Broyden step or reaching max_iter raises
    NonConvergenceError, a singular factor SingularJacobianError.

    x0 is linearized; a later iterate is, unless it passes the dx test
    (which ends the step) or the next iteration makes no refresh.
    """
    p = _step_terms(x, v, a, t1, sys.Q(t1), terms.k)
    if sys.sites is not None:
        p = _offset_terms(p, sys, terms.base.B)
    rows = x.ndim > 1
    iters, lu, dx, small = 0, None, None, False
    counts = np.zeros(len(x), dtype=int) if rows else None
    R, D = linearize(x, p, sys, terms)
    while True:
        rn = norm2(R)
        worst = rn.max() if rows else rn  # NaN if one is NaN, else inf if one is
        if not math.isfinite(worst):
            raise NonConvergenceError(step_index, iters, worst, float("nan"))
        # A converged row stays converged: its zero step passes the dx test
        # when tol_dx > 0, and with tol_dx = 0 it converged on rn < tol_res.
        done = small | (rn < cfg.tol_res)
        if done.all() if rows else done:
            return x, p.velocity(x), p.acceleration(x), counts if rows else iters, rn
        if iters >= cfg.max_iter:
            raise NonConvergenceError(step_index, iters, worst, float("nan"))
        try:
            if D is not None:
                lu = lu_factor(D, terms.base)
            elif cfg.strategy == BROYDEN_RANK1:
                # Good Broyden update J += (dR - J dx') dx'^T / |dx'|^2 with
                # dx' = -dx; since J dx = R_old, dR - J dx' is the new R.  A
                # zero step (tol_dx = 0) cannot update J.
                dd = ad.dot(dx, dx)
                if rows:
                    dd[done] = 1.0  # a converged row's factor is no longer used
                if not np.all(dd > 0.0):
                    raise NonConvergenceError(step_index, iters, worst, 0.0)
                lu = lu_update(lu, R / dd, -dx)
        except SingularMatrixError as err:
            raise SingularJacobianError(step_index, err.pivot_index) from err
        dx = lu_solve(lu, R)
        if rows:
            dx[done] = 0.0
            counts += ~done
        x = x - dx
        iters += 1
        small = norm2(dx) < cfg.tol_dx * (1.0 + norm2(x))
        # Full Newton refreshes J every iteration, simplified only at x0,
        # Broyden once more past half of max_iter.
        refresh = cfg.strategy == FULL_NEWTON or (
            cfg.strategy == BROYDEN_RANK1 and iters == cfg.max_iter // 2 + 1)
        if (small.all() if rows else small) or not refresh:
            R, D = residual(x, p, sys), None
        else:
            R, D = linearize(x, p, sys, terms)


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
