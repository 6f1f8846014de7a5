"""Post-processing: orbit amplitude, spectra, and speed sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

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


def _run_speed(model_factory, speed, cfg, probe_nodes, t_end, fraction, x0, v0):
    sys = model_factory(speed)
    n = sys.n_dof
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    v0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    traj = integrate(sys, x0, v0, 0.0, t_end, cfg)
    window = steady_window(traj, fraction)
    # Node k owns DOFs (4k, 4k+1) = (x, y) under the 4-DOF-per-node ordering.
    return np.array(
        [
            amplitude(window.x[:, 4 * node], window.x[:, 4 * node + 1])
            for node in probe_nodes
        ]
    )


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
    Per-speed solver failures are recorded in the row and the sweep
    continues.  Rows come back ordered by the input speed sequence.
    """
    speeds = list(speeds)
    if not speeds:
        raise ValueError("speed list is empty")

    def run_one(speed):
        try:
            amps = _run_speed(
                model_factory, speed, cfg, probe_nodes, t_end, steady_fraction, x0, v0
            )
            return SweepRow(speed=speed, amplitudes=amps)
        except Exception as err:  # recorded per-row, sweep continues
            return SweepRow(
                speed=speed, amplitudes=None, error=f"{type(err).__name__}: {err}"
            )

    return [run_one(s) for s in speeds]
