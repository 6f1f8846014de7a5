"""Classical fixed-step RK4 on the first-order reduction.

Serves as the independent cross-validation integrator for the implicit
Newmark solver.  Only systems whose nonlinear force does not depend on
acceleration admit the reduction y = [x; v], y' = [v; M^-1 (Q - Cv - Kx - F)].
"""

from __future__ import annotations

import numpy as np

from .linalg import lu_factor, lu_solve
from .system import DynamicSystem, Trajectory, grid_steps

__all__ = ["to_first_order", "rk4_integrate", "DivergenceError"]


class DivergenceError(RuntimeError):
    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(f"non-finite state at step {step_index}")


def to_first_order(sys: DynamicSystem):
    """First-order vector field f(t, y) of dimension 2*n_dof.

    The mass matrix is factored once up front.  Rejects systems whose
    nonlinear force depends on acceleration.
    """
    if sys.accel_dependent:
        raise ValueError(
            "first-order reduction requires an acceleration-independent "
            "nonlinear force"
        )
    n = sys.n_dof
    m_lu = lu_factor(sys.M)
    zero_a = np.zeros(n)

    def field(t, y):
        x = y[:n]
        v = y[n:]
        f = np.asarray(sys.F_nl(x, v, zero_a, t), dtype=float)
        rhs = sys.Q(t) - sys.C @ v - sys.K @ x - f
        return np.concatenate([v, lu_solve(m_lu, rhs)])

    return field


def rk4_integrate(field, y0, t0, t_end, dt) -> Trajectory:
    """Classical 4-stage Runge-Kutta with a fixed step.

    Output uses the same Trajectory layout as the Newmark solver;
    accelerations are read from the field at each grid point, the call
    that is also the next step's first stage: 4 field calls a step.  The
    grid is system.grid_steps's, whose ValueError a bad span or dt raises.
    """
    y0 = np.asarray(y0, dtype=float)
    n_steps = grid_steps(t0, t_end, dt, y0.size)
    n = y0.size // 2

    t = t0 + dt * np.arange(n_steps + 1)
    ys = np.zeros((n_steps + 1, 2 * n))
    accs = np.zeros((n_steps + 1, n))
    ys[0] = y0
    y, k1 = y0, field(t0, y0)
    accs[0] = k1[n:]
    for i in range(1, n_steps + 1):
        ti = t[i - 1]
        k2 = field(ti + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = field(ti + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = field(ti + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(i)
        ys[i] = y
        k1 = field(t[i], y)  # the next step's first stage
        accs[i] = k1[n:]
    return Trajectory(t=t, x=ys[:, :n], v=ys[:, n:], a=accs)
