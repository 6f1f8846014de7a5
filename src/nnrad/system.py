"""Core dynamic-system and trajectory containers.

A DynamicSystem describes M xdd + C xd + K x + F_nl(xdd, xd, x, t) = Q(t).
The nonlinear force F_nl must be written with the operations from
`nnrad.ad` so that it evaluates both on float arrays and on ADArrays;
the integrators rely on that to obtain exact Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from . import ad

__all__ = ["State", "DynamicSystem", "Trajectory"]


@dataclass(frozen=True)
class State:
    """System response at one instant: time, displacement, velocity, acceleration."""

    t: float
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        n = self.x.shape[0]
        if self.v.shape[0] != n or self.a.shape[0] != n:
            raise ValueError("x, v, a must share one dimension")


def _zero_force(n):
    def q(t):
        return np.zeros(n)

    return q


def _zero_nonlinearity(x, v, a, t):
    """Zero force shaped like x: one state, or the (B, n) rows of a batch."""
    return np.zeros(np.shape(ad.value_of(x)))


@dataclass
class DynamicSystem:
    """Second-order system with linear matrices plus a nonlinear force term.

    accel_dependent marks whether F_nl actually uses the acceleration
    argument; systems without acceleration dependence admit the cheap
    first-order reduction and the direct initial-acceleration solve.

    nl_dofs lists the DOFs whose displacement, velocity or acceleration
    F_nl reads (default: all).  The Newton Jacobian differentiates F_nl
    with respect to these DOFs only, so a DOF missing from the list
    silently drops its column of dF_nl/dx.  Declare it from the model's
    structure: a probe evaluation would miss, say, a bearing ball out of
    contact, whose derivative is exactly zero at that state.

    batch_key opts the system into lock-step batches (analysis.sweep).
    Systems with equal, hashable, non-None keys and equal n_dof promise
    the same F_nl and nl_dofs, and that this F_nl also accepts x, v and a
    of shape (B, n_dof), B states at once, returning (B, n_dof) forces
    whose rows have the bits of B one-state calls.  None (the default)
    keeps the system out of every batch.
    """

    n_dof: int
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    Q: Optional[Callable[[float], np.ndarray]] = None
    F_nl: Optional[Callable[[Sequence, Sequence, Sequence, float], Sequence]] = None
    accel_dependent: bool = False
    name: str = ""
    nl_dofs: Optional[Sequence[int]] = None
    batch_key: Optional[Hashable] = None

    def __post_init__(self):
        n = self.n_dof
        for label in ("M", "C", "K"):
            mat = np.asarray(getattr(self, label), dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"{label} must be {n}x{n}, got {mat.shape}")
            setattr(self, label, mat)
        if self.Q is None:
            self.Q = _zero_force(n)
        if self.F_nl is None:
            self.F_nl = _zero_nonlinearity
        if self.nl_dofs is None:
            self.nl_dofs = np.arange(n)
        else:
            dofs = sorted({int(i) for i in self.nl_dofs})
            if dofs and (dofs[0] < 0 or dofs[-1] >= n):
                raise ValueError(f"nl_dofs must lie in 0..{n - 1}, got {dofs}")
            self.nl_dofs = np.array(dofs, dtype=int)


@dataclass
class Trajectory:
    """Uniform-grid time history with per-step convergence diagnostics.

    Row 0 is the initial state; iterations[0] is 0 by convention.  The
    reference integrator emits the identical layout so trajectories from
    the two methods can be diffed directly.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    iterations: np.ndarray = field(default=None)
    residual_norms: np.ndarray = field(default=None)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.v = np.atleast_2d(np.asarray(self.v, dtype=float))
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        n = self.t.shape[0]
        if self.iterations is None:
            self.iterations = np.zeros(n, dtype=int)
        if self.residual_norms is None:
            self.residual_norms = np.zeros(n)

    @property
    def n_samples(self):
        return self.t.shape[0]

    @property
    def n_dof(self):
        return self.x.shape[1]

    def state(self, i) -> State:
        return State(float(self.t[i]), self.x[i], self.v[i], self.a[i])

    def tail(self, start_index) -> "Trajectory":
        """Slice off everything before start_index (diagnostics included)."""
        return Trajectory(
            t=self.t[start_index:],
            x=self.x[start_index:],
            v=self.v[start_index:],
            a=self.a[start_index:],
            iterations=self.iterations[start_index:],
            residual_norms=self.residual_norms[start_index:],
        )
