"""The three benchmark workloads: seeded inputs, the timed call, the output check.

Every input comes from a fixed, finite pool inside the range the workload
names, so that each one has a reference output stored in
``reference.json`` (written by ``make_reference.py`` from the unmodified
solver).  A run draws its sequence of pool entries from ``--seed``.

A workload's ``run`` performs one timed sample and returns a ``Sample``:
the Newmark steps it took, one ``Record`` per solve (a sweep row is one
solve) for the output check, and the raw arrays that the traced pass must
reproduce bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

import nnrad.analysis
import nnrad.newmark
from nnrad import NewmarkConfig
from nnrad.models import assemble_dual_rotor, default_dual_rotor_layout, duffing
from nnrad.models import sfd_rotor_system

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Record:
    """What one solve (or sweep row) produced, in reference-file form."""

    workload: str
    key: str
    values: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class Sample:
    steps: int
    records: List[Record]
    raw: List[np.ndarray]


def _finite(values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values.values())


def relative_gap(got, ref) -> float:
    """max|got - ref| / max|ref|; the scale of a zero reference is 1."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(got - ref))) / scale


def check_record(rec: Record, reference: dict) -> Optional[str]:
    """Why ``rec`` fails its output check, or None when it passes.

    Every value must be finite and lie within the stored relative
    tolerance of the stored reference for the same input.
    """
    if rec.error is not None:
        return f"raised: {rec.error}"
    if not _finite(rec.values):
        return "non-finite output"
    table = reference[rec.workload]
    ref = table["cases"].get(rec.key)
    if ref is None:
        return f"no reference for input {rec.key}"
    for name, tol in table["tolerance"].items():
        gap = relative_gap(rec.values[name], ref[name])
        if gap > tol:
            return f"{name} off reference by {gap:.3e} > {tol:.3e}"
    return None


def failures(records: List[Record], reference: dict):
    """(record, reason) for each record that fails its output check."""
    out = []
    for rec in records:
        why = check_record(rec, reference)
        if why is not None:
            out.append((rec, why))
    return out


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def _trajectory_record(workload, key, traj) -> Record:
    return Record(
        workload,
        key,
        {
            "x": traj.x[-1].tolist(),
            "v": traj.v[-1].tolist(),
            "a": traj.a[-1].tolist(),
            "iters": int(traj.iterations.sum()),
        },
    )


def _traced_system(sys_, tracer):
    if tracer is None:
        return sys_
    return dataclasses.replace(sys_, F_nl=tracer.wrap("models.F_nl", sys_.F_nl))


class SingleSolve:
    """One ``integrate`` call per sample, from an input drawn from a pool."""

    name: str
    strategy: str
    dt: float
    t_end: float

    def pool(self) -> List[float]:
        raise NotImplementedError

    def key(self, p: float) -> str:
        raise NotImplementedError

    def build(self, p: float):
        raise NotImplementedError

    def initial_state(self, p: float):
        """(t0, x0, v0) of the solve for input ``p``."""
        raise NotImplementedError

    def setup(self):
        self.cfg = NewmarkConfig(dt=self.dt, strategy=self.strategy)
        self.systems = {p: self.build(p) for p in self.pool()}

    def inputs(self, seed: int) -> Iterator[float]:
        rng = random.Random(seed)
        pool = self.pool()
        while True:
            yield rng.choice(pool)

    def warm_up(self):
        p = self.pool()[0]
        self.solve(p, t_end=10 * self.dt)

    def solve(self, p, tracer=None, t_end=None):
        sys_ = _traced_system(self.systems[p], tracer)
        t0, x0, v0 = self.initial_state(p)
        # Looked up at call time so that the traced pass sees its wrapper.
        return nnrad.newmark.integrate(
            sys_, x0, v0, t0, t0 + (self.t_end if t_end is None else t_end), self.cfg
        )

    def run(self, p, tracer=None) -> Sample:
        traj = self.solve(p, tracer)
        rec = _trajectory_record(self.name, self.key(p), traj)
        return Sample(traj.n_samples - 1, [rec], [traj.x, traj.v, traj.a, traj.iterations])

    def finish(self, seed: int) -> List[Record]:
        return []


class DuffingFull(SingleSolve):
    """Duffing oscillator, full Newton, x0 in [1.5, 2.5] and v0 = 0."""

    name = "duffing_full"
    strategy = "full"
    dt = 1e-3
    t_end = 1.0

    def pool(self):
        return [round(1.5 + 0.01 * k, 2) for k in range(101)]

    def key(self, p):
        return f"{p:.2f}"

    def build(self, p):
        return duffing()

    def initial_state(self, p):
        return 0.0, np.array([p]), np.zeros(1)


class DualFull(SingleSolve):
    """40-DOF dual rotor, full Newton, LP speed in [760, 840] rad/s.

    Served solves spend nearly all their steps past the start-up from
    rest, whose first steps take more Newton iterations, so each solve
    continues from ``starts``: the state ``settle_t`` after rest, stored in
    ``reference.json``.
    """

    name = "dual_full"
    strategy = "full"
    dt = 1e-4
    t_end = 0.005
    settle_t = 0.2

    def pool(self):
        return [760.0 + 10.0 * k for k in range(9)]

    def key(self, p):
        return f"{p:.0f}"

    def build(self, p):
        return assemble_dual_rotor(default_dual_rotor_layout(omega_lp=p))

    def settle(self, p):
        """State ``settle_t`` after rest, as stored in ``reference.json``."""
        sys_ = self.build(p)
        traj = nnrad.newmark.integrate(
            sys_, np.zeros(sys_.n_dof), np.zeros(sys_.n_dof), 0.0, self.settle_t,
            NewmarkConfig(dt=self.dt, strategy=self.strategy),
        )
        return {"t": float(traj.t[-1]), "x": traj.x[-1].tolist(), "v": traj.v[-1].tolist()}

    def setup(self, starts=None):
        super().setup()
        self.starts = load_reference()[self.name]["starts"] if starts is None else starts

    def initial_state(self, p):
        start = self.starts[self.key(p)]
        return start["t"], np.array(start["x"]), np.array(start["v"])


class SfdSweep:
    """``analysis.sweep`` of the 4-DOF SFD rotor, simplified Newton.

    A sample is one sweep with one speed from each quarter of 600-1400
    rad/s.  Served sweeps spend nearly all their steps on the steady
    orbit, and the first tens of milliseconds from rest cost more per
    step (the film force needs more quadrature panels above eccentricity
    0.25), so every row starts from ``start``: a state on the steady
    orbit at ``start_speed``, stored in ``reference.json``, which the sweep
    passes to all rows as their shared initial condition.  The rows are
    short, so their amplitudes do not yet fall with speed; ``finish``
    runs the trend sweep from rest, long enough for the steady orbit,
    that checks they do.
    """

    name = "sfd_sweep"
    strategy = "simplified"
    dt = 1e-4
    t_end = 0.005
    strata = 4
    probe_nodes = (0,)
    trend_name = "sfd_trend"
    trend_t_end = 0.2
    start_speed = 1000.0
    start_periods = 48  # forcing periods from rest to ``start``, about 0.3 s

    def pool(self):
        return [600.0 + 10.0 * k for k in range(81)]

    def trend_pools(self):
        """Low-speed and high-speed candidates for the trend sweep."""
        return [600.0 + 25.0 * k for k in range(5)], [1300.0 + 25.0 * k for k in range(5)]

    def key(self, speed):
        return f"{speed:.0f}"

    def settle(self):
        """State after a whole number of forcing periods from rest at start_speed.

        At t = 0 the unbalance force has the phase it has at that time, up
        to the nearest step, so sweep rows may start from it at t = 0.
        """
        period = 2.0 * np.pi / self.start_speed
        t_end = self.dt * round(self.start_periods * period / self.dt)
        sys_ = sfd_rotor_system(self.start_speed)
        traj = nnrad.newmark.integrate(
            sys_, np.zeros(sys_.n_dof), np.zeros(sys_.n_dof), 0.0, t_end,
            NewmarkConfig(dt=self.dt, strategy=self.strategy),
        )
        return {"speed": self.start_speed, "t": float(traj.t[-1]),
                "x": traj.x[-1].tolist(), "v": traj.v[-1].tolist()}

    def setup(self, start=None):
        self.cfg = NewmarkConfig(dt=self.dt, strategy=self.strategy)
        self.start = load_reference()[self.name]["start"] if start is None else start
        # Quarter q holds pool entries 20q .. 20q+19; 1400 joins the last.
        pool = self.pool()
        self.stratum_pools = [[] for _ in range(self.strata)]
        for k, speed in enumerate(pool):
            self.stratum_pools[min(k // 20, self.strata - 1)].append(speed)

    def inputs(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield tuple(rng.choice(pool) for pool in self.stratum_pools)

    def warm_up(self):
        self.sweep([self.pool()[0]], 10 * self.dt, self.start)

    def sweep(self, speeds, t_end, start=None, tracer=None):
        """Sweep ``speeds`` to ``t_end``, all rows from ``start`` (rest if None)."""
        if tracer is None:
            factory = sfd_rotor_system
        else:
            def factory(speed):
                return _traced_system(sfd_rotor_system(speed), tracer)
        x0 = v0 = None
        if start is not None:
            x0, v0 = start["x"], start["v"]
        return nnrad.analysis.sweep(
            factory, list(speeds), self.cfg, list(self.probe_nodes), t_end,
            x0=x0, v0=v0,
        )

    def records(self, workload, rows) -> List[Record]:
        return [
            Record(workload, self.key(r.speed),
                   {} if r.amplitudes is None else {"amp": r.amplitudes.tolist()},
                   r.error)
            for r in rows
        ]

    def run(self, speeds, tracer=None) -> Sample:
        rows = self.sweep(speeds, self.t_end, self.start, tracer)
        steps = len(rows) * int(round(self.t_end / self.dt))
        raw = [np.array([np.nan]) if r.amplitudes is None else r.amplitudes for r in rows]
        return Sample(steps, self.records(self.name, rows), raw)

    def finish(self, seed: int) -> List[Record]:
        """Trend sweep: one low and one high speed over the steady window.

        Criterion 6 requires the steady amplitude to fall with speed; a
        failed trend marks the high-speed row as failed.
        """
        rng = random.Random(seed)
        speeds = [rng.choice(pool) for pool in self.trend_pools()]
        rows = self.sweep(speeds, self.trend_t_end)
        records = self.records(self.trend_name, rows)
        amps = [r.amplitudes for r in rows]
        if all(a is not None for a in amps) and records[-1].error is None:
            if not np.all(np.diff([a[0] for a in amps]) < 0.0):
                records[-1].error = (
                    f"amplitude does not fall with speed: {speeds} -> "
                    f"{[float(a[0]) for a in amps]}"
                )
        return records


WORKLOADS = {w.name: w for w in (DuffingFull, SfdSweep, DualFull)}


def get(name: str):
    return WORKLOADS[name]()


def same_bits(a: List[np.ndarray], b: List[np.ndarray]) -> bool:
    """True when two raw outputs are identical bit for bit (NaN included)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x = np.ascontiguousarray(x)
        y = np.ascontiguousarray(y)
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True
