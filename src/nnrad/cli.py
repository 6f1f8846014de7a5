"""Command-line front end: solve, sweep, spectrum, check-jacobian.

Configs are JSON with schema_version 1, SI units throughout, angles in
radians and rotational speeds in rad/s.  Outputs are CSV with a header
row and full double precision (shortest round-trip formatting).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .analysis import spectrum, sweep
from .config import (ConfigError, as_integer, as_number, as_text, at_least, check_schema,
                     integers, list_of, numbers, read_json, record)
from .models import (dual_rotor_system, duffing, load_rotor_layout, pendulum,
                     sfd_rotor_system, van_der_pol)
from .newmark import (STRATEGIES, NewmarkConfig, initial_acceleration, integrate,
                      solve_terms, step_jacobian, step_terms)
from .system import State, grid_steps

_NUMBER = (as_number, None)  # an optional number: the builder's default when absent
_POSITIVE = at_least(as_number, 0, strict=True)


def _layout_file(value, field):
    """A "system.file" path whose rotor layout reads without fault, read
    here, before a sweep could record a fault as a failed row."""
    path = as_text(value, field)  # open() would take an int as a file descriptor
    try:
        load_rotor_layout(path)
    except ConfigError as err:
        raise ConfigError(f"\"{field}\": {err}") from err
    return path


# Each system type's factory, the keys it takes besides "type", passed to
# it as keywords (an argument the factory requires is a required key),
# and the key that a sweep speed sets (None: the type cannot be swept,
# having no rotor whose (x, y) orbit a sweep reads).
SYSTEMS = {
    "van_der_pol": (van_der_pol, dict(eps=_NUMBER), None),
    "duffing": (duffing, dict.fromkeys(("delta", "alpha", "beta", "gamma_f", "omega"),
                                       _NUMBER), None),
    "pendulum": (pendulum, {}, None),
    "sfd_rotor": (sfd_rotor_system, dict(omega=as_number, **dict.fromkeys((
        "mass", "stiffness", "j_d", "j_p", "l1", "l2", "damping", "unbalance"), _NUMBER)),
        "omega"),
    "dual_rotor": (dual_rotor_system, dict(file=(_layout_file, None), omega_lp=_NUMBER,
                                           omega_hp=_NUMBER), "omega_lp"),
}


def _system(swept=False):
    """A reader of a "system" object, by the record of its type's keys;
    if swept, less the key that the sweep speed sets."""
    def read(spec, field):
        kind = spec.get("type") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in SYSTEMS:
            raise ConfigError(f"\"{field}\" must be an object whose \"type\" is one of "
                              f"{', '.join(SYSTEMS)}, got {spec!r}")
        _, keys, speed_key = SYSTEMS[kind]
        if swept and speed_key is None:
            raise ConfigError(f"\"{field}.type\" {kind!r} cannot be swept")
        keys = {key: keys[key] for key in keys if not swept or key != speed_key}
        return record(dict(type=as_text, **keys))(spec, field)
    return read


def _build_system(spec, speed=None):
    """The system of a "system" object read by _system, at the sweep speed speed."""
    factory, _, speed_key = SYSTEMS[spec["type"]]
    kwargs = {key: value for key, value in spec.items() if key != "type"}
    if speed is not None:
        kwargs[speed_key] = speed
    return factory(**kwargs)


def _on_grid(t_end, newmark, t0=0.0, width=1, **doc):
    """A solve or sweep config, checked by the integrators' grid rule at
    width values a sample unless t_end is t0 (a solve's zero-duration run)."""
    if t_end != t0:
        try:
            grid_steps(t0, t_end, newmark.dt, width)
        except ValueError as err:
            raise ConfigError(f"\"t_end\": {err}") from err
    return dict(doc, t_end=t_end, newmark=newmark, t0=t0)


# The "newmark" object: NewmarkConfig's fields, an absent one but dt
# taking its default.
NEWMARK = record(dict(
    dt=as_number, **dict.fromkeys(("beta", "gamma", "tol_dx", "tol_res"), _NUMBER),
    max_iter=(as_integer, None), strategy=(as_text, None),
), NewmarkConfig)

# A sweep's "speeds" given as a range object.
SPEED_RANGE = record(dict(start=as_number, stop=as_number, count=at_least(as_integer, 1)),
                     lambda start, stop, count: list(np.linspace(start, stop, count)))


def _speeds(value, field):
    """A sweep's "speeds": a list of numbers, or a start/stop/count object."""
    return SPEED_RANGE(value, field) if isinstance(value, dict) else numbers(value, field)


# Each command's config: its top-level keys, read by one record; any
# other key is an error.
_RUN = dict(schema_version=as_integer, newmark=(NEWMARK, {}), t_end=as_number)
COMMANDS = {
    "solve": record(dict(_RUN, system=_system(), x0=(numbers, None), v0=(numbers, None),
                         t0=(as_number, 0.0)), _on_grid),
    "sweep": record(dict(_RUN, system=_system(swept=True), speeds=_speeds,
                         probe_nodes=(integers, [0]), steady_fraction=(as_number, 0.3)),
                    _on_grid),
    "spectrum": record(dict(schema_version=as_integer, input=as_text, column=as_text,
                            dt=(_POSITIVE, None))),
    "check-jacobian": record(dict(
        schema_version=as_integer, system=_system(), newmark=(NEWMARK, {}),
        seed=(at_least(as_integer, 0), 0), n_states=(at_least(as_integer, 1), 20),
        scale=(as_number, 1.0), fd_step=(_POSITIVE, 1e-6), tol=(at_least(as_number, 0), 1e-5))),
}


def _fmt(x):
    return repr(float(x))


def _load_config(path, command, args=None):
    """The JSON config at path, read in one pass by command's record, each
    of the --dt, --strategy and --seed flags of args, if given, in place
    of its key."""
    doc = read_json(path, "config")
    check_schema(doc, "config")
    flags = vars(args) if args else {}
    nm = {key: flags[key] for key in ("dt", "strategy") if flags.get(key) is not None}
    if nm and isinstance(doc.get("newmark", {}), dict):
        doc["newmark"] = {**doc.get("newmark", {}), **nm}
    if flags.get("seed") is not None:
        doc["seed"] = flags["seed"]
    return COMMANDS[command](doc, "")


def _dof_vector(doc, key, n):
    """doc[key] as a float vector of n entries, one per DOF, zeros when it is absent."""
    return np.array(list_of(as_number, n)(doc.get(key, [0.0] * n), key))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_solve(args):
    doc = _load_config(args.config, args.command, args)
    sys_ = _build_system(doc["system"])
    n = sys_.n_dof
    x0, v0 = _dof_vector(doc, "x0", n), _dof_vector(doc, "v0", n)
    t0, t_end = doc["t0"], doc["t_end"]
    _on_grid(t_end, doc["newmark"], t0, width=n)  # the read checked one value a sample
    if t_end == t0:
        traj_rows = [(t0, x0, v0, initial_acceleration(sys_, x0, v0, t0))]
    else:
        traj = integrate(sys_, x0, v0, t0, t_end, doc["newmark"])
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
    doc = _load_config(args.config, args.command, args)
    probe_nodes = doc["probe_nodes"]
    try:
        rows = sweep(
            model_factory=lambda s: _build_system(doc["system"], speed=s),
            speeds=doc["speeds"],
            cfg=doc["newmark"],
            probe_nodes=probe_nodes,
            t_end=doc["t_end"],
            steady_fraction=doc["steady_fraction"],
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
    """The step of a CSV t column, or a ConfigError naming t unless every
    step is positive and equals the first to a relative 1e-6, which the
    repr times that ``nnrad solve`` writes meet.
    """
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.all(np.abs(steps - dt) <= 1e-6 * abs(dt)):
        i = int(np.argmax(np.abs(steps - dt)))
        raise ConfigError(f"column \"t\" is not uniform: step {i} is "
                          f"{float(steps[i])!r}, step 0 is {dt!r}")
    if dt <= 0.0:
        raise ConfigError(f"column \"t\" must increase, got step {dt!r}")
    return dt


def cmd_spectrum(args):
    doc = _load_config(args.config, args.command)
    path, column, dt = doc["input"], doc["column"], doc.get("dt")
    try:
        # An input without data rows is the config error below, not a warning.
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
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
    doc = _load_config(args.config, args.command, args)
    sys_ = _build_system(doc["system"])
    cfg = doc["newmark"]
    n = sys_.n_dof
    rng = np.random.default_rng(doc["seed"])
    n_states, scale, h, tol = doc["n_states"], doc["scale"], doc["fd_step"], doc["tol"]
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
