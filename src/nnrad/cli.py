"""Command-line front end: solve, sweep, spectrum, check-jacobian.

Configs are JSON with schema_version 1, SI units throughout, angles in
radians and rotational speeds in rad/s.  Outputs are CSV with a header
row and full double precision (shortest round-trip formatting).
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .analysis import spectrum, sweep
from .config import (ConfigError, as_integer, as_number, as_text, check_keys, check_schema,
                     integers, list_of, numbers, read_json, record, require)
from .models import (dual_rotor_system, duffing, load_rotor_layout, pendulum,
                     sfd_rotor_system, van_der_pol)
from .newmark import (STRATEGIES, NewmarkConfig, integrate, solve_terms, step_jacobian,
                      step_terms)
from .system import State

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

# The "newmark" object: NewmarkConfig's fields, an absent one but dt
# taking its default.
NEWMARK = record(dict(
    dt=as_number, **dict.fromkeys(("beta", "gamma", "tol_dx", "tol_res"), (as_number, None)),
    max_iter=(as_integer, None), strategy=(as_text, None),
), NewmarkConfig)

# A sweep's "speeds" given as a range object, read as (start, stop, count).
SPEED_RANGE = record(dict(start=as_number, stop=as_number, count=as_integer),
                     lambda start, stop, count: (start, stop, count))


def _fmt(x):
    return repr(float(x))


def _load_config(path, command):
    """The JSON config at path, checked for its schema and its top-level keys."""
    doc = read_json(path, "config")
    check_schema(doc, "config")
    check_keys(doc, CONFIG_KEYS[command], command)
    return doc


def _number(doc, key, default, integer=False):
    """doc[key] as by as_number, or default when the key is absent."""
    return as_number(doc[key], key, integer) if key in doc else default


def _system_spec(doc):
    """The config's "system" object, checked for its type and its keys."""
    spec = doc.get("system")
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("system spec must be an object with a \"type\" field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in SYSTEMS:
        raise ConfigError(f"unknown system type {kind!r}")
    _, keys, _ = SYSTEMS[kind]
    check_keys(spec, ("type",) + keys, f"system type {kind!r}")
    for key in keys:
        if key in spec and key != "file":
            as_number(spec[key], f"system.{key}")
    if "file" in spec:
        # A layout fault is a config error here, before a sweep could record
        # it as a failed row; open() would take an int as a file descriptor.
        path = as_text(spec["file"], "system.file")
        try:
            load_rotor_layout(path)
        except ConfigError as err:
            raise ConfigError(f"\"system.file\": {err}") from err
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
    """doc[key] as a float vector of n entries, one per DOF, zeros when it is absent."""
    return np.array(list_of(as_number, n)(doc.get(key, [0.0] * n), key))


def _solve_setup(doc):
    """A solve config's system, x0 and v0."""
    sys_ = _build_system(_system_spec(doc))
    n = sys_.n_dof
    return sys_, _dof_vector(doc, "x0", n), _dof_vector(doc, "v0", n)


def _newmark_config(doc, args):
    """The config's "newmark" object, each of --dt and --strategy, if
    given, in place of its key."""
    nm = doc.get("newmark", {})
    if isinstance(nm, dict):
        flags = {"dt": args.dt, "strategy": args.strategy}
        nm = {**nm, **{key: flag for key, flag in flags.items() if flag is not None}}
    return NEWMARK(nm, "newmark")


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
    t_end = as_number(require(doc, "t_end"), "t_end")
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
    t_end = as_number(require(doc, "t_end"), "t_end")
    cfg = _newmark_config(doc, args)
    speeds_spec = doc.get("speeds")
    if isinstance(speeds_spec, list):
        speeds = numbers(speeds_spec, "speeds")
    elif isinstance(speeds_spec, dict):
        start, stop, count = SPEED_RANGE(speeds_spec, "speeds")
        if count < 1:
            raise ConfigError(f"\"speeds.count\" must be at least 1, got {count}")
        speeds = list(np.linspace(start, stop, count))
    else:
        raise ConfigError("\"speeds\" must be a list or a start/stop/count object")
    probe_nodes = integers(doc.get("probe_nodes", [0]), "probe_nodes")
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
    path = as_text(require(doc, "input"), "input")
    column = require(doc, "column")
    dt = _number(doc, "dt", None)
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:  # ValueError: not numeric CSV, or not UTF-8
        raise ConfigError(f"cannot read \"input\" {path}: {err}") from err
    if column not in header:
        raise ConfigError(
            f"column {column!r} not in CSV; available: {', '.join(header)}"
        )
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
