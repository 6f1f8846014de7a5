"""Core dynamic-system and trajectory containers.

A DynamicSystem describes M xdd + C xd + K x + F_nl(xdd, xd, x, t) = Q(t).
The nonlinear force F_nl must be written with the operations from
`nnrad.ad` so that it evaluates both on float arrays and on ADArrays;
the integrators rely on that to obtain exact Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

import numpy as np

from . import ad

__all__ = ["State", "Sites", "SiteTerms", "DynamicSystem", "Trajectory"]


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


class SiteTerms(NamedTuple):
    """G and G_n, kept by Sites for the last t and cols."""

    G: np.ndarray  # G(t)
    G_n: np.ndarray  # G(t)[:, cols], on the columns the Jacobian reads


class Sites:
    """The force G(t)^T law(G(t) x, t) of s independent sites of width m.

    gather(t) gives the (s m, n) matrix G(t), or gather is that matrix when
    it does not depend on t; rows i m .. i m + m - 1 give site i's m-vector
    u_i of u = G(t) x.  law(u, t), written with nnrad.ad, gives the (s m,)
    site forces, site i's from u_i alone.  With rate, it is law(u, du, t)
    and reads du = G(t) v too, site i's du_i alone; v reaches no other law.
    G is formed once per t from a function, once per Sites from a matrix,
    and G_n once per G and cols (terms).
    """

    def __init__(self, gather, law, width=1, rate=False):
        self.gather = gather
        self.law = law
        self.width = width
        self.rate = rate
        G = None if callable(gather) else np.asarray(gather, dtype=float)
        self._last = (None, None, SiteTerms(G, None))  # (t, cols, terms)

    def matrix(self, t):
        """G(t)."""
        return self.terms(t).G

    def terms(self, t, cols=None):
        """The SiteTerms at t; G_n is G[:, cols] for the last cols given."""
        last_t, last_cols, terms = self._last
        if t != last_t and callable(self.gather):
            terms, last_cols = SiteTerms(np.asarray(self.gather(t), dtype=float), None), None
        if cols is not None and cols is not last_cols:
            terms, last_cols = SiteTerms(terms.G, terms.G[:, cols]), cols
        self._last = (t, last_cols, terms)
        return terms

    def evaluate(self, x, v, t, cols=None, seeds=None):
        """(F, D): F = G^T law(G x, [G v,] t) at t, rows too, and D None.

        Given the columns cols and the seeds (S, S_v, ...) of SolveTerms,
        the law runs on u = G x seeded with S, I_m per site, and on
        du = G v seeded with S_v; F is then a float array and D the
        Jacobian block G_n^T blockdiag(law') G_n on cols, formed with one
        block product: the law's (..., s m, m) seeds as (..., s, m, m)
        times G_n as (s, m, k).
        """
        G, G_n = self.terms(t, cols)
        u = [ad.matvec(G, x), ad.matvec(G, v)] if self.rate else [ad.matvec(G, x)]
        if seeds is not None:
            u = list(map(ad._seeded, u, seeds))  # u with S, du with S_v
        law = self.law(*u, t)
        if seeds is None or not isinstance(law, ad.ADArray):
            return ad.matvec(G.T, law), None
        m, k, lead = self.width, G_n.shape[1], law.seeds.shape[:-2]
        GD = np.matmul(law.seeds.reshape(lead + (-1, m, m)),
                       G_n.reshape(-1, m, k)).reshape(lead + (-1, k))
        D = G_n.T.dot(GD) if GD.ndim == 2 else np.matmul(G_n.T, GD)
        return ad.matvec(G.T, law.value), D

    def force(self, x, v, a, t):
        """G(t)^T law(G(t) x, [G(t) v,] t): the F_nl of the sites; rows too."""
        return self.evaluate(x, v, t)[0]


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
    F_nl reads (default: all, or none when neither F_nl nor sites is
    given).  The Newton Jacobian differentiates F_nl
    with respect to these DOFs only, so a DOF missing from the list
    silently drops its column of dF_nl/dx.  Declare it from the model's
    structure: a probe evaluation would miss, say, a bearing ball out of
    contact, whose derivative is exactly zero at that state.

    sites (Sites) declares F_nl as independent sites, so the step Jacobian
    differentiates their law alone and the Newton loop passes F_nl None
    for a, and for v unless the law reads the rate.  F_nl, when not given,
    is derived from them; a given one (a wrapper, say) is kept and must
    equal it.  nl_dofs must list every DOF that G(t) reads: ValueError
    names one that G(0) reads outside it.

    batch_key opts the system into lock-step batches (analysis.sweep).
    Systems with equal, hashable, non-None keys and equal n_dof promise
    the same F_nl, nl_dofs and sites, and that this F_nl also accepts x,
    v and a of shape (B, n_dof), B states at once, returning (B, n_dof)
    forces whose rows have the bits of B one-state calls.  None (the
    default) keeps the system out of every batch.
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
    sites: Optional[Sites] = None

    def __post_init__(self):
        n = self.n_dof
        for label in ("M", "C", "K"):
            mat = np.asarray(getattr(self, label), dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"{label} must be {n}x{n}, got {mat.shape}")
            setattr(self, label, mat)
        if self.Q is None:
            self.Q = _zero_force(n)
        if self.nl_dofs is None:
            linear = self.F_nl is None and self.sites is None
            self.nl_dofs = np.arange(0 if linear else n)
        else:
            dofs = sorted({int(i) for i in self.nl_dofs})
            if dofs and (dofs[0] < 0 or dofs[-1] >= n):
                raise ValueError(f"nl_dofs must lie in 0..{n - 1}, got {dofs}")
            self.nl_dofs = np.array(dofs, dtype=int)
        if self.sites is not None:
            stray = np.any(self.sites.matrix(0.0), axis=0)
            stray[self.nl_dofs] = False
            if stray.any():
                raise ValueError(f"sites read DOF {stray.argmax()}, not in nl_dofs")
        if self.F_nl is None:
            self.F_nl = _zero_nonlinearity if self.sites is None else self.sites.force


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
