"""Implicit Newmark time stepping with Newton-Raphson corrector.

Each step solves the displacement update of the discretized equation of
motion by Newton iteration.  The iteration Jacobian is the constant
linear part c_a M + c_v C + K, built once per integration, plus the
forward-mode AD derivative of the nonlinear force in the DOFs it reads,
so arbitrary nonlinear forces need no hand-derived tangent.  The three
iteration strategies run one loop and differ only in when the factor is
refreshed from a new Jacobian and whether it is updated in between:
every iteration (full Newton), once per step (simplified Newton), or
once per step and once more past half of max_iter with a Broyden rank-1
secant update of the factor after each iteration (broyden).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    "predict_acceleration",
    "predict_velocity",
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
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
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


def predict_acceleration(x1, s: State, cfg: NewmarkConfig):
    """Acceleration at t+dt implied by the trial displacement x1."""
    c_a, _ = _newmark_coeffs(cfg)
    b, dt = cfg.beta, cfg.dt
    g = c_a * (-s.x) - s.v / (b * dt) - (0.5 / b - 1.0) * s.a
    return c_a * ad.stack(x1) + g


def predict_velocity(x1, s: State, cfg: NewmarkConfig):
    """Velocity at t+dt implied by the trial displacement x1."""
    _, c_v = _newmark_coeffs(cfg)
    b, g_, dt = cfg.beta, cfg.gamma, cfg.dt
    g = c_v * (-s.x) + (1.0 - g_ / b) * s.v + (1.0 - g_ / (2.0 * b)) * dt * s.a
    return c_v * ad.stack(x1) + g


def residual(x1, s: State, t1: float, sys: DynamicSystem, cfg: NewmarkConfig):
    """Step residual R(x1) whose root advances the trajectory to t1.

    R = M a1 + C v1 + K x1 + F_nl(x1, v1, a1, t1) - Q(t1) with a1, v1
    substituted from the Newmark update formulas.  Accepts a float vector
    or an ADArray; the latter yields seeds for the Jacobian.
    """
    x1 = ad.stack(x1)
    a1 = predict_acceleration(x1, s, cfg)
    v1 = predict_velocity(x1, s, cfg)
    lin = sys.M @ a1 + sys.C @ v1 + sys.K @ x1
    return lin + ad.stack(sys.F_nl(x1, v1, a1, t1)) - sys.Q(t1)


def step_matrix(sys: DynamicSystem, cfg: NewmarkConfig):
    """A_eff = c_a M + c_v C + K: the step Jacobian of the linear terms."""
    c_a, c_v = _newmark_coeffs(cfg)
    return c_a * sys.M + c_v * sys.C + sys.K


def step_jacobian(x1, s: State, t1, sys: DynamicSystem, cfg: NewmarkConfig, A_eff):
    """dR/dx1: A_eff plus the AD derivative of F_nl in the DOFs it reads.

    Only sys.nl_dofs are seeded.  Through the Newmark predictors a
    displacement seed e_j carries the velocity seed c_v e_j and the
    acceleration seed c_a e_j, so one forward pass of F_nl gives
    dF/dx + c_v dF/dv + c_a dF/da for those columns.
    """

    def f_nl(x):
        return sys.F_nl(
            x, predict_velocity(x, s, cfg), predict_acceleration(x, s, cfg), t1
        )

    J = A_eff.copy()
    J[:, sys.nl_dofs] += ad.jacobian(f_nl, x1, columns=sys.nl_dofs)
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


def _step_core(sys, s, cfg, A_eff, step_index=0):
    """One Newmark step; returns (state, iterations, final residual norm)."""
    t1 = s.t + cfg.dt
    x = s.x.copy()
    iters = 0

    def evaluate(x):
        """Residual and its norm; a non-finite one ends the step at once."""
        R = residual(x, s, t1, sys, cfg)
        rn = norm2(R)
        if not math.isfinite(rn):
            raise NonConvergenceError(step_index, iters, rn, float("nan"))
        return R, rn

    def factor(fn, *args):
        """lu_factor or lu_update, a singular result as SingularJacobianError."""
        try:
            return fn(*args)
        except SingularMatrixError as err:
            raise SingularJacobianError(step_index, err.pivot_index) from err

    lu = None
    R, rn = evaluate(x)
    while rn >= cfg.tol_res:
        if iters >= cfg.max_iter:
            raise NonConvergenceError(step_index, iters, rn, float("nan"))
        # Full Newton refreshes every iteration, simplified once per step,
        # Broyden once more past half of max_iter.
        if (
            lu is None
            or cfg.strategy == FULL_NEWTON
            or (cfg.strategy == BROYDEN_RANK1 and iters == cfg.max_iter // 2 + 1)
        ):
            lu = factor(lu_factor, step_jacobian(x, s, t1, sys, cfg, A_eff))
        dx = lu_solve(lu, R)
        x = x - dx
        iters += 1
        R, rn = evaluate(x)
        if norm2(dx) < cfg.tol_dx * (1.0 + norm2(x)):
            break
        if cfg.strategy == BROYDEN_RANK1:
            # Good Broyden update J += (dR - J dx') dx'^T / |dx'|^2 with
            # dx' = -dx; since J dx = R_old, dR - J dx' is the new R.
            dd = float(dx @ dx)
            if dd > 0.0:
                lu = factor(lu_update, lu, R / dd, -dx)

    a1 = predict_acceleration(x, s, cfg)
    v1 = predict_velocity(x, s, cfg)
    return State(t1, x, v1, a1), iters, rn


def step(sys: DynamicSystem, s: State, cfg: NewmarkConfig) -> State:
    """Advance one time step; raises on non-convergence or singular Jacobian."""
    new_state, _, _ = _step_core(sys, s, cfg, step_matrix(sys, cfg))
    return new_state


def integrate(
    sys: DynamicSystem, x0, v0, t0, t_end, cfg: NewmarkConfig
) -> Trajectory:
    """Integrate from t0 to t_end on the uniform grid t0 + i*dt."""
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n_steps = int(round((t_end - t0) / cfg.dt))
    n = sys.n_dof

    t = t0 + cfg.dt * np.arange(n_steps + 1)
    xs = np.zeros((n_steps + 1, n))
    vs = np.zeros((n_steps + 1, n))
    accs = np.zeros((n_steps + 1, n))
    iters = np.zeros(n_steps + 1, dtype=int)
    res_norms = np.zeros(n_steps + 1)

    state = State(t0, x0, v0, initial_acceleration(sys, x0, v0, t0))
    xs[0], vs[0], accs[0] = state.x, state.v, state.a
    A_eff = step_matrix(sys, cfg)
    for i in range(1, n_steps + 1):
        state, it, rn = _step_core(sys, state, cfg, A_eff, step_index=i)
        xs[i], vs[i], accs[i] = state.x, state.v, state.a
        iters[i] = it
        res_norms[i] = rn
    return Trajectory(
        t=t, x=xs, v=vs, a=accs, iterations=iters, residual_norms=res_norms
    )
