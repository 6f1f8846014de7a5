"""Post-processing: orbit amplitude, spectra, and speed sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .lockstep import integrate_rows
# bench/tracing.py patches analysis.integrate, so the name must resolve here.
from .newmark import NewmarkConfig, integrate  # noqa: F401
from .system import Trajectory, grid_steps

__all__ = [
    "amplitude",
    "spectrum",
    "steady_window",
    "SweepRow",
    "sweep",
]


def amplitude(x, y) -> float:
    """RMS radial deviation of an (x, y) orbit from its mean point.

    A = sqrt( sum((x_i - xbar)^2 + (y_i - ybar)^2) / N ); for a circular
    orbit sampled over whole periods this recovers the radius.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("amplitude of empty sample vectors")
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sqrt(np.mean(dx * dx + dy * dy)))


def spectrum(x, dt):
    """One-sided magnitude spectrum of the mean-removed signal.

    Returns (frequencies in rad/s, DFT magnitudes).  dt must be finite
    and positive.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("spectrum needs at least 2 samples")
    mags = np.abs(np.fft.rfft(x - x.mean()))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(x.size, d=dt)
    return freqs, mags


def steady_window(traj: Trajectory, fraction: float) -> Trajectory:
    """Final `fraction` of the trajectory samples (the stable phase)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = traj.n_samples
    keep = max(1, int(round(fraction * n)))
    return traj.tail(n - keep)


@dataclass
class SweepRow:
    speed: float
    amplitudes: Optional[np.ndarray]  # one value per probed node, None on failure
    error: Optional[str] = None


def _amplitudes(traj, probe_nodes, fraction):
    window = steady_window(traj, fraction)
    # Node k owns DOFs (4k, 4k+1) = (x, y) under the 4-DOF-per-node ordering.
    return np.array(
        [
            amplitude(window.x[:, 4 * node], window.x[:, 4 * node + 1])
            for node in probe_nodes
        ]
    )


def _failed(speed, err) -> SweepRow:
    return SweepRow(speed=speed, amplitudes=None, error=f"{type(err).__name__}: {err}")


def sweep(
    model_factory,
    speeds: Sequence[float],
    cfg: NewmarkConfig,
    probe_nodes: Sequence[int],
    t_end: float,
    steady_fraction: float = 0.3,
    x0=None,
    v0=None,
) -> List[SweepRow]:
    """Amplitude-frequency table: integrate each speed, measure the steady orbit.

    Each speed starts from the same initial condition (zero by default)
    at t = 0.  An empty speed list, a negative probe node, a
    steady_fraction outside (0, 1) or a t_end outside (0, inf) raises
    ValueError, naming the argument, before any system is built; a probe
    node past the last node of a built system, or a time grid too long for
    the arrays of a call of integrate_rows (system.grid_steps), does so
    before any row is integrated.  Per-speed failures, of the factory or
    the solver, are recorded in the row as "<type>: <message>" and the
    sweep continues.
    Rows come back ordered by the input speed sequence.

    Rows whose systems share a batch_key and n_dof (DynamicSystem) go to
    one lockstep.integrate_rows call, which runs them in lock-step; each
    other row goes to a call of its own.  Either way a row's amplitudes
    and error are the ones integrate gives it, bit for bit.
    """
    speeds = list(speeds)
    if not speeds:
        raise ValueError('"speeds" is empty')
    for i, node in enumerate(probe_nodes):
        if node < 0:
            raise ValueError(f'"probe_nodes[{i}]" must be a node index >= 0, '
                             f'got {node}')
    if not 0.0 < steady_fraction < 1.0:
        raise ValueError(f'"steady_fraction" must lie in (0, 1), got {steady_fraction}')
    if not 0.0 < t_end < math.inf:
        raise ValueError(f'"t_end" must be positive and finite, got {t_end}')
    rows: List[Optional[SweepRow]] = [None] * len(speeds)
    systems = {}
    for k, speed in enumerate(speeds):
        try:
            systems[k] = model_factory(speed)
        except Exception as err:  # recorded per-row, sweep continues
            rows[k] = _failed(speed, err)
    for k, sys in systems.items():
        for i, node in enumerate(probe_nodes):
            # _amplitudes reads DOFs 4 node and 4 node + 1.
            if 4 * node + 1 >= sys.n_dof:
                raise ValueError(
                    f'"probe_nodes[{i}]" = {node} is past the last node of the '
                    f'{sys.n_dof}-DOF system at speed {speeds[k]}')

    groups = {}
    for k, sys in systems.items():
        key = (None, k) if sys.batch_key is None else (sys.batch_key, sys.n_dof)
        groups.setdefault(key, []).append(k)
    for ks in groups.values():  # the grid of each integrate_rows call, before any runs
        try:
            grid_steps(0.0, t_end, cfg.dt, len(ks) * systems[ks[0]].n_dof)
        except ValueError as err:
            raise ValueError(f'"t_end": {err}') from err
    for ks in groups.values():
        group = [systems[k] for k in ks]
        results = integrate_rows(
            group,
            [np.zeros(s.n_dof) if x0 is None else x0 for s in group],
            [np.zeros(s.n_dof) if v0 is None else v0 for s in group],
            0.0, t_end, cfg,
        )
        for k, result in zip(ks, results):
            if isinstance(result, Exception):
                rows[k] = _failed(speeds[k], result)
            else:
                amps = _amplitudes(result, probe_nodes, steady_fraction)
                rows[k] = SweepRow(speed=speeds[k], amplitudes=amps)
    return rows
