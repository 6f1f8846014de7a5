"""Command-line front end: solve, sweep, spectrum, check-jacobian.

Configs are JSON with schema_version 1, SI units throughout, angles in
radians and rotational speeds in rad/s.  Outputs are CSV with a header
row and full double precision (shortest round-trip formatting).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

import numpy as np

from .analysis import spectrum, sweep
from .models import dual_rotor_system, duffing, pendulum, sfd_rotor_system, van_der_pol
from .newmark import (STRATEGIES, NewmarkConfig, integrate, solve_terms, step_jacobian,
                      step_terms)
from .system import State

SCHEMA_VERSION = 1

# Each system type's factory, the keys it accepts besides "type", which
# are passed to the factory as keywords, and the keyword that a sweep
# speed sets (None: the type cannot be swept, having no rotor whose
# (x, y) orbit a sweep reads); any other key is an error.
SYSTEMS = {
    "van_der_pol": (van_der_pol, ("eps",), None),
    "duffing": (duffing, ("delta", "alpha", "beta", "gamma_f", "omega"), None),
    "pendulum": (pendulum, (), None),
    "sfd_rotor": (sfd_rotor_system, ("omega", "mass", "stiffness", "j_d", "j_p", "l1",
                                     "l2", "damping", "unbalance"), "omega"),
    "dual_rotor": (dual_rotor_system, ("file", "omega_lp", "omega_hp"), "omega_lp"),
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
    if not isinstance(kind, str) or kind not in SYSTEMS:
        raise ConfigError(f"unknown system type {kind!r}")
    _, keys, _ = SYSTEMS[kind]
    unknown = sorted(set(spec) - {"type"} - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} for system type {kind!r}; accepted: "
            + ", ".join(keys)
        )
    for key in keys:
        if key == "file":  # open() would take an int as a file descriptor
            if not isinstance(spec.get(key, ""), str):
                raise ConfigError(f"\"system.file\" must be a path, got {spec[key]!r}")
        elif key in spec:
            _as_number(spec[key], f"system.{key}")
    return spec


def _build_system(spec, speed=None):
    """The system of a spec checked by _system_spec, at the sweep speed speed."""
    factory, keys, speed_key = SYSTEMS[spec["type"]]
    kwargs = {key: spec[key] for key in keys if key in spec}
    if speed is not None:
        kwargs[speed_key] = speed
    for name, param in inspect.signature(factory).parameters.items():
        if param.default is param.empty and name not in kwargs:
            raise ConfigError(f"{spec['type']} needs an \"{name}\" field")
    return factory(**kwargs)


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
    if t_end < t0:
        raise ConfigError(f"\"t_end\" must be at least \"t0\" = {t0!r}, got {t_end!r}")
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
    if SYSTEMS[model_spec["type"]][2] is None:  # no keyword for a sweep speed
        raise ConfigError(f"\"system.type\" {model_spec['type']!r} cannot be swept")
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
    """The derivative of F_nl in the step Jacobian the solver factors
    (step_jacobian minus A_eff, which reads only nl_dofs) vs central finite
    differences of F_nl alone along the Newmark maps."""
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
    terms = solve_terms(sys_, cfg)

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

        def f_nl(x):
            return np.asarray(sys_.F_nl(x, p.velocity(x), p.acceleration(x), p.t1),
                              dtype=float)

        # Scaling by dF alone keeps a large A_eff from hiding a wrong column.
        dF_ad = step_jacobian(x1, p, sys_, terms) - terms.base.B
        dF_fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            dF_fd[:, j] = (f_nl(x1 + e) - f_nl(x1 - e)) / (2.0 * h)
        denom = max(np.max(np.abs(dF_fd)), 1e-12)
        gaps.append(np.max(np.abs(dF_ad - dF_fd)) / denom)
    worst = float(np.max(gaps))  # NaN if any gap is NaN
    print(f"max relative AD-vs-FD discrepancy over {n_states} states: {worst:.3e}")
    if not worst <= tol:
        print(f"FAIL: not within tolerance {tol:.1e}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


FLAGS = {
    "--out": dict(required=True, help="output CSV path"),
    "--strategy": dict(choices=STRATEGIES, help="override the Newton iteration strategy"),
    "--dt": dict(type=float, help="override time step [s]"),
    "--seed": dict(type=int, help="RNG seed for randomized checks"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nnrad",
        description="Implicit Newmark/Newton-Raphson solver with AD Jacobians",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command registers only the flags it reads, so argparse rejects
    # the others.
    for name, fn, flags in (
        ("solve", cmd_solve, ("--out", "--strategy", "--dt")),
        ("sweep", cmd_sweep, ("--out", "--strategy", "--dt")),
        ("spectrum", cmd_spectrum, ("--out",)),
        ("check-jacobian", cmd_check_jacobian, ("--strategy", "--dt", "--seed")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
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
