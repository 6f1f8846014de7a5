"""Rolling-element bearing restoring force from Hertz contact.

Each ball carries load only under positive interference; the clipped
10/9-power law keeps the force and its first derivative continuous
across contact onset, so the AD Jacobian is well defined everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import ad

__all__ = [
    "BearingParams",
    "cage_speed",
    "ball_angles",
    "ball_forces",
    "bearing_force",
    "hertz_load",
]

HERTZ_EXPONENT = 10.0 / 9.0


@dataclass(frozen=True)
class BearingParams:
    n_balls: int
    k_hertz: float  # contact stiffness, N/m^(10/9)
    clearance: float  # radial clearance, m
    r_inner: float  # inner race radius, m
    r_outer: float  # outer race radius, m
    omega_inner: float = 0.0  # inner ring speed, rad/s
    omega_outer: float = 0.0  # outer ring speed, rad/s

    def __post_init__(self):
        if self.n_balls < 1:
            raise ValueError("n_balls must be at least 1")
        if self.k_hertz <= 0.0 or self.r_inner <= 0.0 or self.r_outer <= 0.0:
            raise ValueError("stiffness and race radii must be positive")
        if self.clearance < 0.0:
            raise ValueError("clearance must be non-negative")


def cage_speed(p: BearingParams) -> float:
    """Cage speed (r_i*omega_outer + r_o*omega_inner) / (r_i + r_o).

    Both ring speeds are explicit fields, so either pairing convention
    is reachable by how the caller assigns them.
    """
    return (p.r_inner * p.omega_outer + p.r_outer * p.omega_inner) / (
        p.r_inner + p.r_outer
    )


def ball_angles(p: BearingParams, t):
    """Angles theta_k = 2*pi*(k-1)/N_b + omega_c*t of the balls at time t."""
    return 2.0 * math.pi * np.arange(p.n_balls) / p.n_balls + cage_speed(p) * t


def ball_forces(dx, dy, theta, clearance, k_hertz):
    """(x, y) Hertz contact force of each ball, vectorised over balls.

    A ball at angle theta carries hertz_load of the race-relative
    displacement (dx, dy) projected on the ball direction.  Any argument
    may be an array over balls; dx and dy may be ADArrays.
    """
    c, s = np.cos(theta), np.sin(theta)
    load = hertz_load(dx * c + dy * s, clearance, k_hertz)
    return load * c, load * s


def hertz_load(delta, clearance, k_hertz):
    """k_hertz * relu_pow(delta - clearance, 10/9): the load of each ball
    whose race-relative displacement on its direction is delta."""
    return k_hertz * ad.relu_pow(delta - clearance, HERTZ_EXPONENT)


def bearing_force(x_i, y_i, x_o, y_o, t, p: BearingParams):
    """(F_x, F_y) Hertz contact force for inner/outer race displacements.

    The sum of ball_forces over the bearing's balls; inactive balls
    contribute zero smoothly.  Runs over ADArrays when the inputs carry
    seeds.
    """
    fx, fy = ball_forces(x_i - x_o, y_i - y_o, ball_angles(p, t), p.clearance,
                         p.k_hertz)
    return fx.sum(), fy.sum()
