"""Dual-rotor finite element assembly with nonlinear bearing supports.

Global DOF ordering is 4 per node: (x, y, theta_x, theta_y).  Shaft and
disk matrices are formulated per bending plane with local coordinates
(x, -theta_y) and (y, theta_x); the assembly maps them into the global
ordering with the corresponding sign flips and adds the speed-scaled
gyroscopic cross-plane coupling.  Bearing forces (support and
inter-shaft) enter as the nonlinear force term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import List

import numpy as np

from ..linalg import scatter_add
from ..system import DynamicSystem, Sites
from .bearing import BearingParams, ball_angles, cage_speed, hertz_load
from .disk import DiskProps, disk_matrices
from .shaft import ShaftElementProps, shaft_element_matrices

__all__ = [
    "ShaftElement",
    "DiskPlacement",
    "SupportBearing",
    "InterShaftBearing",
    "RotorLayout",
    "assemble_dual_rotor",
    "load_rotor_layout",
    "default_dual_rotor_layout",
    "dual_rotor_system",
]

GRAVITY = 9.81


@dataclass(frozen=True)
class ShaftElement:
    node_i: int
    node_j: int
    props: ShaftElementProps
    rotor: str  # "lp" or "hp"


@dataclass(frozen=True)
class DiskPlacement:
    node: int
    props: DiskProps
    rotor: str


@dataclass(frozen=True)
class SupportBearing:
    """Bearing to ground: inner race on the rotor node, outer race fixed."""

    node: int
    params: BearingParams
    rotor: str


@dataclass(frozen=True)
class InterShaftBearing:
    """Bearing between rotors: inner race on the LP node, outer on the HP node."""

    inner_node: int
    outer_node: int
    params: BearingParams


@dataclass
class RotorLayout:
    node_z: np.ndarray  # axial coordinates, for reference/plotting
    elements: List[ShaftElement]
    disks: List[DiskPlacement]
    support_bearings: List[SupportBearing]
    intershaft_bearings: List[InterShaftBearing]
    omega_lp: float
    omega_hp: float
    rayleigh_alpha: float = 0.0
    rayleigh_beta: float = 0.0
    gravity: bool = False

    @property
    def n_nodes(self):
        return len(self.node_z)

    @property
    def n_dof(self):
        return 4 * self.n_nodes

    def speed_of(self, rotor):
        if rotor == "lp":
            return self.omega_lp
        if rotor == "hp":
            return self.omega_hp
        raise ValueError(f"unknown rotor tag {rotor!r}")

    def validate(self):
        refs = [("element", n) for el in self.elements for n in (el.node_i, el.node_j)]
        refs += [("disk", d.node) for d in self.disks]
        refs += [("support bearing", b.node) for b in self.support_bearings]
        refs += [("inter-shaft bearing", n) for b in self.intershaft_bearings
                 for n in (b.inner_node, b.outer_node)]
        for kind, node in refs:
            if not 0 <= node < self.n_nodes:
                raise ValueError(f"{kind} references missing node {node}")


def _plane_maps(*nodes):
    """(dof_map, signs) per bending plane, (x, -theta_y) and (y, theta_x), of nodes."""
    map1 = [dof for n in nodes for dof in (4 * n, 4 * n + 3)]
    map2 = [dof for n in nodes for dof in (4 * n + 1, 4 * n + 2)]
    return (map1, [1.0, -1.0] * len(nodes)), (map2, [1.0] * len(map2))


def _add_block(M, K, G, maps, omega, M_b, J_b, K_b=None):
    """Add one shaft element's or disk's per-plane blocks, in place.

    M_b and K_b enter both bending planes; J_b, scaled by the spin speed
    omega, couples plane 1 to plane 2 antisymmetrically in G.
    """
    for dof_map, signs in maps:
        scatter_add(M, M_b, dof_map, signs)
        if K_b is not None:
            scatter_add(K, K_b, dof_map, signs)
    (map1, s1), (map2, s2) = maps
    G[np.ix_(map1, map2)] += -omega * J_b * np.outer(s1, s2)
    G[np.ix_(map2, map1)] += omega * J_b * np.outer(s2, s1)


def assemble_dual_rotor(layout: RotorLayout) -> DynamicSystem:
    """Build the assembled nonlinear DynamicSystem for a rotor layout.

    M and K collect shaft and disk contributions; C is Rayleigh damping
    alpha*M + beta*K plus the antisymmetric gyroscopic matrix scaled by
    each rotor's spin speed.  The nonlinear force sums Hertz bearing
    forces, declared as one site per ball (DynamicSystem.sites); the
    inter-shaft bearing loads its node pair with equal and opposite
    forces.  It reads only the x and y DOFs of the bearing nodes, which
    the system declares as its nl_dofs.
    """
    layout.validate()
    n_dof = layout.n_dof
    M = np.zeros((n_dof, n_dof))
    K = np.zeros((n_dof, n_dof))
    G = np.zeros((n_dof, n_dof))

    for el in layout.elements:
        M_s, J_s, K_s = shaft_element_matrices(el.props)
        _add_block(M, K, G, _plane_maps(el.node_i, el.node_j),
                   layout.speed_of(el.rotor), M_s, J_s, K_s)

    unbalance_terms = []
    for d in layout.disks:
        omega = layout.speed_of(d.rotor)
        M_d, J_d, q_d = disk_matrices(d.props, omega)
        _add_block(M, K, G, _plane_maps(d.node), omega, M_d, J_d)
        unbalance_terms.append((4 * d.node, q_d))

    C = layout.rayleigh_alpha * M + layout.rayleigh_beta * K + G

    # Every ball of every bearing in one flat list, each ball a site.
    # Support bearings have a fixed outer race; the inter-shaft bearing's
    # races follow the two rotors.  Row b of R picks the race-relative x
    # and y displacements of ball b's bearing (+1 inner, -1 outer race),
    # and row b of the gather weighs them by cos and sin of ball b's angle.
    placements = [
        (4 * b.node, None, replace(b.params, omega_inner=layout.speed_of(b.rotor),
                                   omega_outer=0.0))
        for b in layout.support_bearings
    ] + [
        (4 * b.inner_node, 4 * b.outer_node,
         replace(b.params, omega_inner=layout.omega_lp, omega_outer=layout.omega_hp))
        for b in layout.intershaft_bearings
    ]
    params = [p for _, _, p in placements]
    n_balls = [p.n_balls for p in params]
    R = np.zeros((sum(n_balls), n_dof))
    first = 0
    for inner, outer, p in placements:
        balls = slice(first, first + p.n_balls)
        R[balls, inner:inner + 2] = 1.0
        if outer is not None:
            R[balls, outer:outer + 2] = -1.0
        first += p.n_balls
    is_x = np.arange(n_dof) % 4 == 0
    theta0 = np.concatenate([ball_angles(p, 0.0) for p in params] + [np.zeros(0)])
    omega_c, clearance, k_hertz = (
        np.repeat(np.array(values, dtype=float), n_balls)
        for values in (
            [cage_speed(p) for p in params],
            [p.clearance for p in params],
            [p.k_hertz for p in params],
        )
    )

    def gather(t):
        theta = (theta0 + omega_c * t)[:, None]
        return np.where(is_x, np.cos(theta), np.sin(theta)) * R

    def law(u, t):
        return hertz_load(u, clearance, k_hertz)

    grav = np.zeros(n_dof)
    if layout.gravity:
        d_y = np.zeros(n_dof)
        d_y[1::4] = 1.0
        grav = -GRAVITY * (M @ d_y)

    def q(t):
        force = grav.copy()
        for base, q_d in unbalance_terms:
            q1, q2 = q_d(t)
            force[base] += q1[0]  # plane 1: x direction
            force[base + 1] += q2[0]  # plane 2: y direction
        return force

    return DynamicSystem(
        n_dof=n_dof, M=M, C=C, K=K, Q=q, name="dual_rotor", sites=Sites(gather, law),
        nl_dofs=np.flatnonzero(R.any(axis=0)),
    )


def _bearing_from_dict(d) -> BearingParams:
    return BearingParams(
        n_balls=int(d["n_balls"]),
        k_hertz=float(d["k_hertz"]),
        clearance=float(d["clearance"]),
        r_inner=float(d["r_inner"]),
        r_outer=float(d["r_outer"]),
    )


def load_rotor_layout(source) -> RotorLayout:
    """Read a rotor layout from a JSON file path or parsed dict.

    See the packaged data/dual_rotor.json for the schema (schema_version 1,
    SI units, speeds in rad/s).
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if doc.get("schema_version") != 1:
        raise ValueError("rotor layout file must declare schema_version: 1")

    node_z = np.array([float(nd["z"]) for nd in doc["nodes"]])
    elements = [
        ShaftElement(
            node_i=int(e["nodes"][0]),
            node_j=int(e["nodes"][1]),
            rotor=e["rotor"],
            props=ShaftElementProps(
                density=float(e["density"]),
                length=float(e["length"]),
                area=float(e["area"]),
                young=float(e["young"]),
                i_z=float(e["i_z"]),
                shear_factor=float(e["shear_factor"]),
            ),
        )
        for e in doc["elements"]
    ]
    disks = [
        DiskPlacement(
            node=int(d["node"]),
            rotor=d["rotor"],
            props=DiskProps(
                mass=float(d["mass"]),
                j_d=float(d["j_d"]),
                j_p=float(d["j_p"]),
                eccentricity=float(d.get("eccentricity", 0.0)),
                phase=float(d.get("phase", 0.0)),
            ),
        )
        for d in doc["disks"]
    ]
    supports = [
        SupportBearing(
            node=int(b["node"]), rotor=b["rotor"], params=_bearing_from_dict(b)
        )
        for b in doc.get("support_bearings", [])
    ]
    intershafts = [
        InterShaftBearing(
            inner_node=int(b["inner_node"]),
            outer_node=int(b["outer_node"]),
            params=_bearing_from_dict(b),
        )
        for b in doc.get("intershaft_bearings", [])
    ]
    speeds = doc.get("speeds", {})
    rayleigh = doc.get("rayleigh", {})
    return RotorLayout(
        node_z=node_z,
        elements=elements,
        disks=disks,
        support_bearings=supports,
        intershaft_bearings=intershafts,
        omega_lp=float(speeds.get("omega_lp", 0.0)),
        omega_hp=float(speeds.get("omega_hp", 0.0)),
        rayleigh_alpha=float(rayleigh.get("alpha", 0.0)),
        rayleigh_beta=float(rayleigh.get("beta", 0.0)),
        gravity=bool(doc.get("gravity", False)),
    )


def _set_speeds(layout, omega_lp, omega_hp) -> RotorLayout:
    """layout at omega_lp and omega_hp (default 1.2 omega_lp); None keeps a speed."""
    if omega_lp is not None:
        layout.omega_lp = float(omega_lp)
        if omega_hp is None:
            omega_hp = 1.2 * float(omega_lp)
    if omega_hp is not None:
        layout.omega_hp = float(omega_hp)
    return layout


def default_dual_rotor_layout(omega_lp=None, omega_hp=None) -> RotorLayout:
    """The shipped illustrative 10-node (7 LP + 3 HP) 40-DOF layout.

    Physical parameters are illustrative, not published values.  By
    default the HP rotor spins at 1.2x the LP speed; pass omega_hp to
    override.
    """
    ref = resources.files("nnrad.models") / "data" / "dual_rotor.json"
    return _set_speeds(load_rotor_layout(json.loads(ref.read_text())), omega_lp, omega_hp)


def dual_rotor_system(omega_lp=None, omega_hp=None, file=None) -> DynamicSystem:
    """The dual rotor of the layout file (default: the shipped one).

    omega_lp and omega_hp follow default_dual_rotor_layout's rule; a speed
    not given keeps the layout's.
    """
    layout = default_dual_rotor_layout() if file is None else load_rotor_layout(file)
    return assemble_dual_rotor(_set_speeds(layout, omega_lp, omega_hp))
