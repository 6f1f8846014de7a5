"""Post-processing: orbit amplitude, spectra, and speed sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .lockstep import integrate_rows
from .newmark import NewmarkConfig, integrate
from .system import Trajectory

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

    Returns (frequencies in rad/s, DFT magnitudes).
    """
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

    Each speed starts from the same initial condition (zero by default).
    An empty speed list, a negative probe node or a steady_fraction
    outside (0, 1) raises ValueError, naming the argument, before any
    system is built.
    Per-speed failures, of the factory, the solver or the measurement,
    are recorded in the row as "<type>: <message>" and the sweep
    continues.  Rows come back ordered by the input speed sequence.

    Rows whose systems share a batch_key (DynamicSystem) run together,
    one lock-step Newton step at a time (lockstep.integrate_rows); every
    other row runs integrate on its own.  Either way a row's amplitudes
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
    rows: List[Optional[SweepRow]] = [None] * len(speeds)
    systems = {}
    for k, speed in enumerate(speeds):
        try:
            systems[k] = model_factory(speed)
        except Exception as err:  # recorded per-row, sweep continues
            rows[k] = _failed(speed, err)

    def start(vec, sys):
        return np.zeros(sys.n_dof) if vec is None else np.asarray(vec, dtype=float)

    def measure(k, traj):
        try:
            amps = _amplitudes(traj, probe_nodes, steady_fraction)
            rows[k] = SweepRow(speed=speeds[k], amplitudes=amps)
        except Exception as err:
            rows[k] = _failed(speeds[k], err)

    def run_alone(k):
        sys = systems[k]
        try:
            traj = integrate(sys, start(x0, sys), start(v0, sys), 0.0, t_end, cfg)
        except Exception as err:
            rows[k] = _failed(speeds[k], err)
            return
        measure(k, traj)

    batches = {}
    for k, sys in systems.items():
        if sys.batch_key is None:
            run_alone(k)
        else:
            batches.setdefault((sys.batch_key, sys.n_dof), []).append(k)
    for ks in batches.values():
        if len(ks) == 1:
            run_alone(ks[0])
            continue
        group = [systems[k] for k in ks]
        try:
            results = integrate_rows(
                group, [start(x0, s) for s in group], [start(v0, s) for s in group],
                0.0, t_end, cfg,
            )
        except Exception:  # the batch as a whole failed: run its rows alone
            for k in ks:
                run_alone(k)
            continue
        for k, result in zip(ks, results):
            if isinstance(result, Exception):
                rows[k] = _failed(speeds[k], result)
            else:
                measure(k, result)
    return rows
