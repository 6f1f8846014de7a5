"""Squeeze-film damper oil-film forces and the 4-DOF SFD rotor model.

Short-bearing theory gives the film force as the pressure
(dq.n) / (1 + q.n)^3 integrated against the unit vector n over the
positive-pressure half film, for the journal position q and its rate dq
in clearances.  A composite 15-node Gauss-Legendre rule integrates it in
the frame of dq, at fixed offsets from J dq (J the quarter turn), so the
force needs no angle and no per-node sin or cos, and it is written over
the AD array type.  One rule picks each journal's branch, for one
journal and for rows alike (_film_branches).  The rotor declares the
film as one rate-reading site of width 2 (nnrad.system.Sites): the
constant journal map is its gather matrix, the film force its law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .. import ad
from ..system import DynamicSystem, Sites

__all__ = [
    "FilmRuptureError",
    "SFDParams",
    "gauss_legendre_15",
    "sommerfeld_integral",
    "sfd_force",
    "sfd_rotor_system",
    "default_sfd_params",
]


class FilmRuptureError(RuntimeError):
    """Dimensionless eccentricity reached the film clearance (r >= 1)."""

    def __init__(self, r, context=""):
        self.r = r
        msg = f"oil film ruptured: dimensionless eccentricity r={r:.6f} >= 1"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def gauss_legendre_15():
    """Nodes and weights of the 15-point Gauss-Legendre rule on [-1, 1].

    Roots of P_15 are polished by Newton iteration from the Chebyshev
    estimates; the rule integrates polynomials exactly through degree 29.
    """
    n = 15
    nodes = np.empty(n)
    weights = np.empty(n)
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        _, dp = _legendre_and_derivative(n, x)
        nodes[i] = x
        weights[i] = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(nodes)
    return nodes[order], weights[order]


_GL15_NODES, _GL15_WEIGHTS = gauss_legendre_15()


@dataclass(frozen=True)
class SFDParams:
    """Squeeze-film damper geometry and lubricant properties."""

    viscosity: float  # Pa s
    journal_radius: float  # m
    land_length: float  # m
    film_clearance: float  # m

    def __post_init__(self):
        if self.film_clearance <= 0.0:
            raise ValueError("film clearance must be positive")
        ratio = self.land_length / (2.0 * self.journal_radius)
        if ratio >= 0.25:
            warnings.warn(
                f"L/D = {ratio:.3f} >= 0.25: short-bearing assumption is "
                "questionable",
                stacklevel=2,
            )


def default_sfd_params() -> SFDParams:
    return SFDParams(
        viscosity=6.76e-3,
        journal_radius=3.915e-2,
        land_length=0.015,
        film_clearance=2.5e-4,
    )


def _n_panels(r_value):
    """Panels of the composite rule needed for ~1e-11 accuracy at eccentricity r.

    The integrand 1/(1 + r cos)^3 sharpens as r -> 1 (its complex poles
    approach the contour), so the 15-node rule is applied on r-dependent
    subdivisions of the half film.  One panel suffices below r = 0.25.
    """
    if r_value < 0.25:
        return 1
    if math.isnan(r_value):
        raise ValueError("eccentricity is not a number")
    return int(math.ceil(10.0 * r_value))


MAX_PANELS = 10  # _n_panels below film rupture, r < 1


def _panel_rule(n_panels, span):
    """Offsets from the start of the span and weights of the GL15 composite rule.

    Point (panel p, node t_i) sits at the fraction (p + 0.5 + 0.5 t_i)/P
    of the span; each panel's rule is scaled by its half width span/(2P).
    span may be an ADArray; then so are both results.
    """
    frac = ((np.arange(n_panels)[:, None] + 0.5 + 0.5 * _GL15_NODES) / n_panels).ravel()
    return span * frac, np.tile(_GL15_WEIGHTS, n_panels) * (span * 0.5 / n_panels)


def _half_film_rule(n_panels):
    """(C, S, w, WSC, WSS) of the rule of n_panels over (0, pi): the cos and sin
    of its offsets, its weights, and the (1, m) node rows w S C and w S^2."""
    offsets, w = _panel_rule(n_panels, math.pi)
    c, s = np.cos(offsets), np.sin(offsets)
    return c, s, w, (w * s * c)[None], (w * s * s)[None]


# _HALF_FILM_RULES[P - 1] is the rule of P panels, for each P of _n_panels.
_HALF_FILM_RULES = tuple(_half_film_rule(n) for n in range(1, MAX_PANELS + 1))


def sommerfeld_integral(l, m, r, theta1, theta2):
    """I_3^{lm} = int_{theta1}^{theta2} sin^l cos^m / (1 + r cos)^3 dtheta.

    Evaluated by composite 15-node Gauss-Legendre quadrature; r, theta1
    and theta2 may be ADArrays.  Valid for 0 <= r < 1; at r >= 1 the film
    is ruptured.
    """
    if l not in (0, 1, 2) or m not in (0, 1, 2):
        raise ValueError("exponents l, m must lie in 0..2")
    if ad.value_of(r) >= 1.0:
        raise FilmRuptureError(ad.value_of(r))
    offsets, weights = _panel_rule(_n_panels(ad.value_of(r)), theta2 - theta1)
    theta = theta1 + offsets
    s, c = ad.sin(theta), ad.cos(theta)
    w = weights * (1.0 + r * c) ** -3.0
    for _ in range(l):
        w = w * s
    for _ in range(m):
        w = w * c
    return w.sum()


CONCENTRIC_FLOOR = 1e-12  # m; below this the precession angle is undefined
STATIC_FLOOR = 1e-14  # squeeze velocities below this give zero force


# (a, b) -> (b, -a): the quarter turn that forms cross products of 2-vectors.
_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _journal_map(l1, p: SFDParams):
    """Matrix taking (x, y, theta_x, theta_y) to the journal center in clearances.

    The journal center is (x + theta_y*l1, y - theta_x*l1).
    """
    return np.array([[1.0, 0.0, 0.0, l1], [0.0, 1.0, -l1, 0.0]]) / p.film_clearance


def _film_force(q, dq, p: SFDParams):
    """(F_x, F_y) oil-film force for journal position q and its rate dq.

    q and dq are 2-vectors (float arrays or ADArrays) in units of the
    film clearance, so |q| is the dimensionless eccentricity r.  Arrays
    of shape (B, 2) are B journals, each evaluated as on its own (see
    _film_force_rows).
    """
    if ad.value_of(q).ndim > 1:
        return _film_force_rows(q, dq, p)
    args, (key,) = _film_branches(q, dq, p)
    return np.zeros(2) if key is None else _film_integral(*args, *key, p)


def _film_branches(q, dq, p: SFDParams):
    """(args, keys) of one journal q with rate dq, or of (B, 2) rows.

    keys holds each row's branch of _film_integral, (static, panel
    count), or None for a concentric row, whose force is zero.  args are
    q, dq, J dq, q.dq and q.J dq, or None when every row is concentric.
    The branches are chosen on the rows' values as Python floats.  A
    ruptured row raises FilmRuptureError, and a NaN one ValueError (that
    names the row of rows), before any product of the journal is formed.
    """
    qv = ad.value_of(q)
    rows, floor, radii = qv.ndim > 1, _concentric_r2(p), []
    for i, r2 in enumerate(_entries(ad.dot(qv, qv))):
        r = None if r2 < floor else math.sqrt(r2)
        if r is not None and not r < 1.0:
            if r >= 1.0:
                raise _rupture(r, qv[i] if rows else qv, p)
            row = f" of row {i}" if rows else ""
            raise ValueError(f"eccentricity{row} is not a number")
        radii.append(r)
    if radii.count(None) == len(radii):
        return None, radii
    # r' and r psi' (psi the precession angle) are q.dq / r and q.J dq / r.
    jdq = ad.matvec(_QUARTER_TURN, dq)
    qdq, qjdq = ad.dot(q, dq), ad.dot(q, jdq)
    keys = [None if r is None else
            (abs(w / r) < STATIC_FLOOR and abs(u / r) < STATIC_FLOOR, _n_panels(r))
            for w, u, r in zip(_entries(ad.value_of(qjdq)), _entries(ad.value_of(qdq)),
                               radii)]
    return (q, dq, jdq, qdq, qjdq), keys


def _entries(c):
    """The entries of one journal's scalar c, or of a (B, 1) column c of rows."""
    return c[:, 0].tolist() if c.ndim else [c]


def _concentric_r2(p: SFDParams):
    """r^2 under which the journal counts as concentric: zero film force."""
    return (CONCENTRIC_FLOOR / p.film_clearance) ** 2


def _rupture(r, q, p: SFDParams):
    u, w = q * p.film_clearance
    return FilmRuptureError(r, context=f"journal at u={u:.3e}, w={w:.3e}")


def _film_integral(q, dq, jdq, qdq, qjdq, static, n_panels, p: SFDParams):
    """The film force of journal q with rate dq, from J dq, q.dq and q.J dq.

    Takes one journal, or rows of journals that share the branch: static
    (no squeeze motion) and the panel count.  Per-row scalars then have
    shape (B, 1), as ad.dot gives them.
    """
    c, s, w, wsc, wss = _HALF_FILM_RULES[n_panels - 1]
    coef = p.viscosity * p.journal_radius * p.land_length**3 / p.film_clearance**2
    if static:
        # No squeeze motion: the half film is pinned to start at q/r (theta1
        # = 0), so n_j = C_j q/r - S_j J q/r and dq.n_j = r' C_j + r psi' S_j.
        r = ad.sqrt(ad.dot(q, q))
        wp = w * (1.0 + r * c) ** -3.0 * (s * (qjdq / r) + c * (qdq / r))
        f_r, f_t = ad.matvec(c[None], wp), ad.matvec(s[None], wp)
        return (f_r * q - f_t * ad.matvec(_QUARTER_TURN, q)) * (coef / r)
    # In the frame of dq the half film starts where dq.n = 0, at J dq/|dq|:
    # n_j = (C_j J dq + S_j dq)/|dq|, so dq.n_j = |dq| S_j, whose |dq|
    # cancels the frame's, and q.n_j = (q.J dq C_j + q.dq S_j)/|dq|.
    inv = 1.0 / ad.sqrt(ad.dot(dq, dq))
    d = (1.0 + (qjdq * inv) * c + (qdq * inv) * s) ** -3.0
    return (ad.matvec(wsc, d) * jdq + ad.matvec(wss, d) * dq) * coef


def _film_force_rows(q, dq, p: SFDParams):
    """_film_force of each row of (B, 2) arrays q and dq, bit for bit.

    The kinematics run on all rows at once.  The quadrature runs once per
    branch of the one-journal force (_film_branches): concentric rows get
    zero force, and the others are grouped by (static, panel count), so
    no row is ever integrated with another row's panels.
    """
    args, keys = _film_branches(q, dq, p)
    if keys.count(keys[0]) == len(keys) and keys[0] is not None:
        return _film_integral(*args, *keys[0], p)
    groups = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    parts = [(idx, _film_integral(*(a[idx] for a in args), *key, p))
             for key, idx in groups.items()]
    return _merge_rows(parts, len(keys))


def _merge_rows(parts, n_rows):
    """One (n_rows, 2) array from (row indices, rows) parts; zero elsewhere.

    The result is an ADArray when any part is one.
    """
    ad_parts = [part for _, part in parts if isinstance(part, ad.ADArray)]
    shape = (n_rows, 2)
    value = np.zeros(shape)
    seeds = np.zeros(shape + (ad_parts[0].width,)) if ad_parts else None
    for idx, part in parts:
        value[idx] = ad.value_of(part)
        if isinstance(part, ad.ADArray):
            seeds[idx] = part.seeds
    return value if seeds is None else ad.ADArray(value, seeds)


def sfd_force(x, y, theta_x, theta_y, vx, vy, vtheta_x, vtheta_y, p: SFDParams, l1):
    """(F_x, F_y) oil-film force at the journal, in Cartesian axes.

    The journal center displacement is (x + theta_y*l1, y - theta_x*l1)
    with l1 the lever arm from the disk to the damper.  Radial and
    tangential short-bearing forces are rotated into Cartesian axes.
    Raises FilmRuptureError when the eccentricity reaches the clearance.
    """
    T = _journal_map(l1, p)
    f = _film_force(
        T @ ad.stack([x, y, theta_x, theta_y]),
        T @ ad.stack([vx, vy, vtheta_x, vtheta_y]),
        p,
    )
    return f[0], f[1]


def sfd_rotor_system(
    omega,
    mass=37.62,
    stiffness=5.4e6,
    j_d=0.8,
    j_p=1.6,
    l1=0.894,
    l2=1.038,
    damping=265.0,
    unbalance=6.508e-4,
    sfd: SFDParams | None = None,
) -> DynamicSystem:
    """4-DOF rotor (x, y, theta_x, theta_y) on an SFD and a linear support.

    Defaults are the published parameter set for this configuration.
    The oil-film force enters the four equations as
    (F_x, F_y, -F_y*l1, F_x*l1); unbalance drives the translations with
    delta*omega^2*(cos, sin)(omega*t).
    """
    if sfd is None:
        sfd = default_sfd_params()
    m, k, c = mass, stiffness, damping
    dl = l1 - l2
    ll = l1 * l1 + l2 * l2

    M = np.diag([m, m, j_d, j_d])
    C = np.array(
        [
            [2.0 * c, 0.0, 0.0, c * dl],
            [0.0, 2.0 * c, -c * dl, 0.0],
            [0.0, -c * dl, c * ll, j_p * omega],
            [c * dl, 0.0, -j_p * omega, c * ll],
        ]
    )
    K = np.array(
        [
            [k, 0.0, 0.0, 0.5 * k * dl],
            [0.0, k, -0.5 * k * dl, 0.0],
            [0.0, -0.5 * k * dl, 0.5 * k * ll, 0.0],
            [0.5 * k * dl, 0.0, 0.0, 0.5 * k * ll],
        ]
    )

    amp = unbalance * omega * omega

    def q(t):
        return np.array(
            [amp * math.cos(omega * t), amp * math.sin(omega * t), 0.0, 0.0]
        )

    # The film reads the journal centre q = T x and its rate T v, in
    # clearances; T^T (F_x, F_y) * clearance is (F_x, F_y, -F_y*l1, F_x*l1).
    T = _journal_map(l1, sfd)

    def film(q, dq, t):
        return _film_force(q, dq, sfd) * sfd.film_clearance

    # The site depends on l1 and the damper alone, and takes rows of states.
    return DynamicSystem(
        n_dof=4, M=M, C=C, K=K, Q=q, name="sfd_rotor",
        sites=Sites(T, film, width=2, rate=True),
        batch_key=("sfd_rotor", l1, sfd),
    )
