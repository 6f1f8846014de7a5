"""Command-line front end: solve, sweep, spectrum, check-jacobian.

Configs are JSON with schema_version 1, SI units throughout, angles in
radians and rotational speeds in rad/s.  Outputs are CSV with a header
row and full double precision (shortest round-trip formatting).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import ad
from .analysis import spectrum, sweep
from .models import (
    assemble_dual_rotor,
    default_dual_rotor_layout,
    duffing,
    load_rotor_layout,
    pendulum,
    sfd_rotor_system,
    van_der_pol,
)
from .newmark import STRATEGIES, NewmarkConfig, integrate, residual, step_terms
from .system import State

SCHEMA_VERSION = 1

# The keys each system type accepts besides "type"; any other is an error.
SYSTEM_KEYS = {
    "van_der_pol": ("eps",),
    "duffing": ("delta", "alpha", "beta", "gamma_f", "omega"),
    "pendulum": (),
    "sfd_rotor": ("omega", "mass", "stiffness", "j_d", "j_p", "l1", "l2",
                  "damping", "unbalance"),
    "dual_rotor": ("file", "omega_lp", "omega_hp"),
}

# The top-level config keys each command accepts; any other is an error.
CONFIG_KEYS = {
    "solve": ("schema_version", "system", "newmark", "x0", "v0", "t0", "t_end"),
    "sweep": ("schema_version", "system", "newmark", "speeds", "probe_nodes",
              "t_end", "steady_fraction"),
    "spectrum": ("schema_version", "input", "column", "dt"),
    "check-jacobian": ("schema_version", "system", "newmark", "seed", "n_states",
                       "scale", "fd_step", "tol"),
}


class ConfigError(ValueError):
    pass


def _fmt(x):
    return repr(float(x))


def _load_config(path, command):
    """The JSON config at path, checked for its schema and its top-level keys."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare \"schema_version\": {SCHEMA_VERSION}"
        )
    unknown = sorted(set(doc) - set(CONFIG_KEYS[command]))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} for {command}; accepted: "
            + ", ".join(CONFIG_KEYS[command])
        )
    return doc


def _require(doc, key):
    """doc[key], or a ConfigError naming the missing field."""
    if key not in doc:
        raise ConfigError(f"config needs a \"{key}\" field")
    return doc[key]


def _as_number(value, field, integer=False):
    """A finite JSON number as a float (an int if integer), or a ConfigError naming field."""
    kinds = int if integer else (int, float)
    # json reads NaN, Infinity and -Infinity as floats.
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or isinstance(value, float) and not math.isfinite(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"\"{field}\" must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _number(doc, key, default, integer=False):
    """doc[key] as by _as_number, or default when the key is absent."""
    return _as_number(doc[key], key, integer) if key in doc else default


def _numbers(value, field, integer=False):
    """A JSON list of numbers as a list, each entry checked by _as_number."""
    if not isinstance(value, list):
        raise ConfigError(f"\"{field}\" must be a list of numbers")
    return [_as_number(v, f"{field}[{i}]", integer) for i, v in enumerate(value)]


def _system_spec(doc):
    """The config's "system" object, checked for its type and its keys."""
    spec = doc.get("system")
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("system spec must be an object with a \"type\" field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in SYSTEM_KEYS:
        raise ConfigError(f"unknown system type {kind!r}")
    unknown = sorted(set(spec) - {"type"} - set(SYSTEM_KEYS[kind]))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} for system type {kind!r}; accepted: "
            + ", ".join(SYSTEM_KEYS[kind])
        )
    for key in SYSTEM_KEYS[kind]:
        if key in spec and key != "file":
            _as_number(spec[key], f"system.{key}")
    return spec


def _build_system(spec, speed=None):
    """Instantiate a built-in system from a spec checked by _system_spec."""
    kind = spec["type"]
    if kind == "van_der_pol":
        return van_der_pol(eps=spec.get("eps", 1.0))
    if kind == "duffing":
        return duffing(
            delta=spec.get("delta", 1.0),
            alpha=spec.get("alpha", 1.0),
            beta=spec.get("beta", 3.0),
            gamma_f=spec.get("gamma_f", 10.0),
            omega=spec.get("omega", 1.0),
        )
    if kind == "pendulum":
        return pendulum()
    if kind == "sfd_rotor":
        kwargs = {key: spec[key] for key in SYSTEM_KEYS[kind] if key in spec}
        if speed is not None:
            kwargs["omega"] = speed
        if kwargs.get("omega") is None:
            raise ConfigError("sfd_rotor needs an \"omega\" field")
        return sfd_rotor_system(**kwargs)
    # "dual_rotor", the last type in SYSTEM_KEYS.
    if "file" in spec:
        layout = load_rotor_layout(spec["file"])
    else:
        layout = default_dual_rotor_layout()
    omega_lp = speed if speed is not None else spec.get("omega_lp")
    if omega_lp is not None:
        layout.omega_lp = float(omega_lp)
        layout.omega_hp = float(spec.get("omega_hp", 1.2 * float(omega_lp)))
    return assemble_dual_rotor(layout)


def _dof_vector(doc, key, n):
    """doc[key] as a float vector of n entries, zeros when it is absent."""
    if key not in doc:
        return np.zeros(n)
    value = np.array(_numbers(doc[key], key))
    if value.shape != (n,):
        raise ConfigError(
            f"\"{key}\" must list {n} value(s), one per DOF of the system; "
            f"got shape {value.shape}"
        )
    return value


def _solve_setup(doc):
    """A solve config's system, x0 and v0."""
    sys_ = _build_system(_system_spec(doc))
    n = sys_.n_dof
    return sys_, _dof_vector(doc, "x0", n), _dof_vector(doc, "v0", n)


NEWMARK_NUMBERS = ("dt", "beta", "gamma", "tol_dx", "tol_res", "max_iter")


def _newmark_config(doc, args):
    nm = doc.get("newmark", {})
    if not isinstance(nm, dict):
        raise ConfigError("\"newmark\" must be an object")
    nm = dict(nm)
    for key in NEWMARK_NUMBERS:
        if key in nm:
            nm[key] = _as_number(nm[key], f"newmark.{key}", key == "max_iter")
    if not isinstance(nm.get("strategy", ""), str):
        raise ConfigError(
            f"\"newmark.strategy\" must be a string, got {nm['strategy']!r}")
    if args.dt is not None:
        nm["dt"] = args.dt
    if args.strategy is not None:
        nm["strategy"] = args.strategy
    if "dt" not in nm:
        raise ConfigError("newmark config needs a \"dt\" field (or pass --dt)")
    try:
        return NewmarkConfig(**nm)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad newmark config: {err}") from err


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_solve(args):
    doc = _load_config(args.config, args.command)
    sys_, x0, v0 = _solve_setup(doc)
    cfg = _newmark_config(doc, args)
    n = sys_.n_dof
    t0 = _number(doc, "t0", 0.0)
    t_end = _as_number(_require(doc, "t_end"), "t_end")
    if t_end == t0:
        from .newmark import initial_acceleration

        a0 = initial_acceleration(sys_, x0, v0, t0)
        traj_rows = [(t0, x0, v0, a0)]
    else:
        traj = integrate(sys_, x0, v0, t0, t_end, cfg)
        traj_rows = [
            (traj.t[i], traj.x[i], traj.v[i], traj.a[i])
            for i in range(traj.n_samples)
        ]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"v_{i}" for i in range(n)]
        + [f"a_{i}" for i in range(n)]
    )
    rows = (
        [_fmt(t)] + [_fmt(v) for v in np.concatenate([x, vel, acc])]
        for t, x, vel, acc in traj_rows
    )
    _write_csv(args.out, header, rows)
    return 0


def cmd_sweep(args):
    doc = _load_config(args.config, args.command)
    model_spec = _system_spec(doc)
    t_end = _as_number(_require(doc, "t_end"), "t_end")
    cfg = _newmark_config(doc, args)
    speeds_spec = doc.get("speeds")
    if isinstance(speeds_spec, list):
        speeds = _numbers(speeds_spec, "speeds")
    elif isinstance(speeds_spec, dict):
        missing = [k for k in ("start", "stop", "count") if k not in speeds_spec]
        if missing:
            raise ConfigError(f"speed range needs start/stop/count: {missing[0]!r}")
        start = _as_number(speeds_spec["start"], "speeds.start")
        stop = _as_number(speeds_spec["stop"], "speeds.stop")
        count = _as_number(speeds_spec["count"], "speeds.count", integer=True)
        if count < 1:
            raise ConfigError(f"\"speeds.count\" must be at least 1, got {count}")
        speeds = list(np.linspace(start, stop, count))
    else:
        raise ConfigError("\"speeds\" must be a list or a start/stop/count object")
    probe_nodes = _numbers(doc.get("probe_nodes", [0]), "probe_nodes", integer=True)
    steady_fraction = _number(doc, "steady_fraction", 0.3)
    try:
        rows = sweep(
            model_factory=lambda s: _build_system(model_spec, speed=s),
            speeds=speeds,
            cfg=cfg,
            probe_nodes=probe_nodes,
            t_end=t_end,
            steady_fraction=steady_fraction,
        )
    except ValueError as err:  # sweep's checks of its inputs, which name the field
        raise ConfigError(str(err)) from err
    header = ["speed"] + [f"A_node{p}" for p in probe_nodes] + ["error"]
    out_rows = []
    failures = 0
    for row in rows:
        if row.amplitudes is None:
            failures += 1
            out_rows.append(
                [_fmt(row.speed)] + ["nan"] * len(probe_nodes) + [row.error or ""]
            )
        else:
            out_rows.append(
                [_fmt(row.speed)] + [_fmt(a) for a in row.amplitudes] + [""]
            )
    _write_csv(args.out, header, out_rows)
    return 0 if failures == 0 else 1


def _uniform_step(t):
    """The step of a CSV t column, or a ConfigError naming t if it varies.

    Every step must equal the first to a relative 1e-6, which the repr
    times that ``nnrad solve`` writes meet.
    """
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.all(np.abs(steps - dt) <= 1e-6 * abs(dt)):
        i = int(np.argmax(np.abs(steps - dt)))
        raise ConfigError(f"column \"t\" is not uniform: step {i} is "
                          f"{float(steps[i])!r}, step 0 is {dt!r}")
    return dt


def cmd_spectrum(args):
    doc = _load_config(args.config, args.command)
    path = _require(doc, "input")
    column = _require(doc, "column")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if column not in header:
        raise ConfigError(
            f"column {column!r} not in CSV; available: {', '.join(header)}"
        )
    dt = doc.get("dt")
    if dt is None and "t" not in header:
        raise ConfigError("no \"dt\" in config and no t column in CSV")
    if len(data) < 2:
        # Two samples for a spectrum, and two times for a step.
        source = "\"input\"" if dt is not None else "column \"t\""
        raise ConfigError(f"{source} has {len(data)} data rows; at least 2 "
                          "are needed")
    sig = data[:, header.index(column)]
    if dt is None:
        dt = _uniform_step(data[:, header.index("t")])
    dt = _as_number(dt, "dt")
    if dt <= 0.0:
        raise ConfigError(f"\"dt\" must be positive, got {dt!r}")
    freqs, mags = spectrum(sig, dt)
    _write_csv(
        args.out,
        ["omega_rad_s", "magnitude"],
        ([_fmt(f), _fmt(m)] for f, m in zip(freqs, mags)),
    )
    return 0


def cmd_check_jacobian(args):
    """AD vs central finite differences on randomized step residuals."""
    doc = _load_config(args.config, args.command)
    sys_ = _build_system(_system_spec(doc))
    cfg = _newmark_config(doc, args)
    n = sys_.n_dof
    seed = args.seed if args.seed is not None else _number(doc, "seed", 0, integer=True)
    rng = np.random.default_rng(seed)
    n_states = _number(doc, "n_states", 20, integer=True)
    if n_states < 1:
        raise ConfigError(f"\"n_states\" must be at least 1, got {n_states}")
    scale = _number(doc, "scale", 1.0)
    h = _number(doc, "fd_step", 1e-6)
    if h <= 0.0:
        raise ConfigError(f"\"fd_step\" must be positive, got {h!r}")
    tol = _number(doc, "tol", 1e-5)

    gaps = []
    for _ in range(n_states):
        s = State(
            t=float(rng.uniform(0.0, 1.0)),
            x=scale * rng.standard_normal(n),
            v=scale * rng.standard_normal(n),
            a=scale * rng.standard_normal(n),
        )
        x1 = scale * rng.standard_normal(n)
        p = step_terms(sys_, s, cfg)

        def res(z):
            return residual(z, p, sys_)

        J_ad = ad.jacobian(res, x1)
        J_fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J_fd[:, j] = (np.asarray(res(x1 + e)) - np.asarray(res(x1 - e))) / (
                2.0 * h
            )
        denom = max(np.max(np.abs(J_fd)), 1e-12)
        gaps.append(np.max(np.abs(J_ad - J_fd)) / denom)
    worst = float(np.max(gaps))  # NaN if any gap is NaN
    print(f"max relative AD-vs-FD discrepancy over {n_states} states: {worst:.3e}")
    if not worst <= tol:
        print(f"FAIL: not within tolerance {tol:.1e}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nnrad",
        description="Implicit Newmark/Newton-Raphson solver with AD Jacobians",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_out in (
        ("solve", cmd_solve, True),
        ("sweep", cmd_sweep, True),
        ("spectrum", cmd_spectrum, True),
        ("check-jacobian", cmd_check_jacobian, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument(
            "--strategy",
            choices=STRATEGIES,
            default=None,
            help="override the Newton iteration strategy",
        )
        p.add_argument("--dt", type=float, default=None, help="override time step [s]")
        p.add_argument(
            "--seed", type=int, default=None, help="RNG seed for randomized checks"
        )
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
