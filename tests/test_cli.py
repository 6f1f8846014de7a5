import json
import math
from pathlib import Path

import numpy as np
import pytest

import nnrad.cli
from nnrad import DynamicSystem
from nnrad.cli import _build_system, _load_config, _solve_setup, _system_spec, main
from nnrad.models import assemble_dual_rotor, default_dual_rotor_layout, load_rotor_layout

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


DUFFING_SOLVE = {
    "schema_version": 1,
    "system": {"type": "duffing"},
    "newmark": {"dt": 1e-3},
    "x0": [2.0],
    "v0": [0.0],
    "t_end": 0.05,
}


class TestSolve:
    def test_duffing_initial_row(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", DUFFING_SOLVE)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x_0", "v_0", "a_0"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 2.0
        assert float(rows[0][2]) == 0.0
        assert len(rows) == 51

    def test_zero_duration_run(self, tmp_path):
        doc = dict(DUFFING_SOLVE, t_end=0.0)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        # a(0) = Q(0) - K*x - beta*x^3 = 10 - 2 - 24 = -16
        assert float(rows[0][3]) == pytest.approx(-16.0, abs=1e-12)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", DUFFING_SOLVE)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["solve", "--config", cfg, "--out", str(out1)])
        main(["solve", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_dt_override_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", DUFFING_SOLVE)
        out = tmp_path / "traj.csv"
        main(["solve", "--config", cfg, "--out", str(out), "--dt", "5e-3"])
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_strategy_override_flag(self, tmp_path):
        # At this dt the strategies write different trajectories.
        base = dict(DUFFING_SOLVE, newmark={"dt": 0.01}, t_end=1.0)
        outs = {}
        for name, doc, flags in (
            ("default", base, []),
            ("flag", base, ["--strategy", "simplified"]),
            ("config", dict(base, newmark={"dt": 0.01, "strategy": "simplified"}), []),
        ):
            cfg = write_config(tmp_path / f"{name}.json", doc)
            out = tmp_path / f"{name}.csv"
            assert main(["solve", "--config", cfg, "--out", str(out)] + flags) == 0
            outs[name] = out.read_bytes()
        assert outs["flag"] == outs["config"]
        assert outs["flag"] != outs["default"]

    def test_non_convergence_exit_1(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE, newmark={"dt": 1e-3, "max_iter": 1, "tol_dx": 0.0,
                                           "tol_res": 0.0})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Newton iteration did not converge at step 1 ")

    def test_t_end_before_t0_exit_2(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE, t0=1.0, t_end=0.5)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert '"t_end"' in capsys.readouterr().err

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2

    def test_missing_schema_version(self, tmp_path):
        doc = dict(DUFFING_SOLVE)
        del doc["schema_version"]
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_system_type(self, tmp_path):
        doc = dict(DUFFING_SOLVE, system={"type": "wobblator"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_system_key_exit_2(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE, system={"type": "duffing", "detla": 0.5})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "detla" in capsys.readouterr().err

    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE, x_0=[2.0])
        del doc["x0"]
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "'x_0'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["x0", "v0"])
    def test_initial_vector_length_exit_2(self, tmp_path, capsys, field):
        doc = dict(DUFFING_SOLVE, **{field: [2.0, 1.0]})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f'"{field}"' in capsys.readouterr().err

    def test_shipped_configs_pass_the_system_check(self):
        # Each shipped config passes its command's top-level key check and
        # its system check, and a solve config's x0 and v0 fit its system.
        commands = {"check_jacobian_duffing": "check-jacobian",
                    "duffing_solve": "solve", "sfd_sweep": "sweep",
                    "spectrum": "spectrum"}
        for path in sorted(CONFIGS.glob("*.json")):
            assert path.stem in commands, (
                f"configs/{path.name} is new: add it to `commands` in this "
                f"test with the command it is run by")
            command = commands[path.stem]
            doc = _load_config(path, command)
            if "system" in doc:
                _system_spec(doc)
            if command == "solve":
                _solve_setup(doc)

    def test_sfd_rotor_without_omega_exit_2(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE, system={"type": "sfd_rotor"}, x0=[0.0] * 4,
                   v0=[0.0] * 4)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert '"omega"' in capsys.readouterr().err

    def test_missing_t_end_exit_2(self, tmp_path, capsys):
        doc = dict(DUFFING_SOLVE)
        del doc["t_end"]
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert '"t_end"' in capsys.readouterr().err


class TestDualRotorSpeeds:
    LAYOUT = (Path(__file__).resolve().parent.parent / "src" / "nnrad" / "models"
              / "data" / "dual_rotor.json")

    @pytest.mark.parametrize("speeds", [
        {"omega_lp": 800.0}, {"omega_hp": 900.0},
        {"omega_lp": 800.0, "omega_hp": 900.0}, {}])
    def test_speeds_follow_the_layout_rule(self, speeds):
        # omega_hp defaults to 1.2 omega_lp; omega_hp alone sets HP alone.
        got = _build_system({"type": "dual_rotor", **speeds})
        want = assemble_dual_rotor(default_dual_rotor_layout(**speeds))
        assert np.array_equal(got.C, want.C)

    @pytest.mark.parametrize("speeds, lp, hp", [
        ({"omega_lp": 800.0}, 800.0, 960.0), ({"omega_hp": 900.0}, None, 900.0),
        ({"omega_lp": 800.0, "omega_hp": 900.0}, 800.0, 900.0), ({}, None, None)])
    def test_file_with_speeds(self, tmp_path, speeds, lp, hp):
        doc = json.loads(self.LAYOUT.read_text())
        doc["speeds"] = {"omega_lp": 500.0, "omega_hp": 700.0}
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(doc))
        got = _build_system({"type": "dual_rotor", "file": str(path), **speeds})
        layout = load_rotor_layout(str(path))
        layout.omega_lp = 500.0 if lp is None else lp
        layout.omega_hp = 700.0 if hp is None else hp
        assert np.array_equal(got.C, assemble_dual_rotor(layout).C)

    def test_sweep_speed_sets_omega_lp(self):
        got = _build_system({"type": "dual_rotor", "omega_hp": 900.0}, speed=800.0)
        want = assemble_dual_rotor(default_dual_rotor_layout(800.0, 900.0))
        assert np.array_equal(got.C, want.C)


class TestSweep:
    def test_type_without_a_speed_exit_2(self, tmp_path, capsys):
        # duffing has an "omega", but no (x, y) orbit for a sweep to read.
        for kind in ("pendulum", "duffing"):
            doc = dict(SFD_SWEEP, system={"type": kind})
            cfg = write_config(tmp_path / "c.json", doc)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
            assert '"system.type"' in capsys.readouterr().err

    def test_failed_rows_exit_1(self, tmp_path):
        # The film ruptures within 1 ms at both speeds (ROADMAP).
        doc = dict(SFD_SWEEP, system={"type": "sfd_rotor", "unbalance": 0.05},
                   speeds=[900.0, 1000.0], t_end=0.002)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        header, rows = read_csv(out)
        assert header == ["speed", "A_node0", "error"]
        assert [float(row[0]) for row in rows] == [900.0, 1000.0]
        for row in rows:
            assert row[1] == "nan"
            assert row[2].startswith("FilmRuptureError: ")

    def test_single_speed_sfd(self, tmp_path):
        doc = {
            "schema_version": 1,
            "system": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4, "strategy": "simplified"},
            "speeds": [900.0],
            "probe_nodes": [0],
            "t_end": 0.02,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["speed", "A_node0", "error"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 900.0
        assert float(rows[0][1]) > 0.0

    def test_speed_range_object(self, tmp_path):
        doc = {
            "schema_version": 1,
            "system": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4, "strategy": "simplified"},
            "speeds": {"start": 800.0, "stop": 1000.0, "count": 3},
            "probe_nodes": [0],
            "t_end": 0.01,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [800.0, 900.0, 1000.0]

    def test_malformed_speed_range(self, tmp_path):
        doc = {
            "schema_version": 1,
            "system": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4},
            "speeds": {"start": 800.0},
            "probe_nodes": [0],
            "t_end": 0.01,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


    def test_missing_t_end_exit_2(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "system": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4},
            "speeds": [900.0],
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert '"t_end"' in capsys.readouterr().err

    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "system": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4},
            "speeds": [900.0],
            "t_end": 0.01,
            "steady_frac": 0.5,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "'steady_frac'" in capsys.readouterr().err

    def test_model_key_is_not_a_system(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "model": {"type": "sfd_rotor"},
            "newmark": {"dt": 1e-4},
            "speeds": [900.0],
            "t_end": 0.01,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "system" in capsys.readouterr().err


SFD_SWEEP = {
    "schema_version": 1,
    "system": {"type": "sfd_rotor"},
    "newmark": {"dt": 1e-4},
    "speeds": [900.0],
    "t_end": 0.01,
}


@pytest.mark.parametrize(
    "command, base, change, field",
    [
        ("solve", DUFFING_SOLVE, {"t_end": "abc"}, "t_end"),
        ("solve", DUFFING_SOLVE, {"t0": "0"}, "t0"),
        ("solve", DUFFING_SOLVE, {"system": {"type": "duffing", "delta": "x"}},
         "system.delta"),
        ("solve", DUFFING_SOLVE, {"x0": ["2"]}, "x0[0]"),
        ("solve", DUFFING_SOLVE, {"v0": [True]}, "v0[0]"),
        ("sweep", SFD_SWEEP, {"t_end": [0.01]}, "t_end"),
        ("sweep", SFD_SWEEP, {"system": {"type": "sfd_rotor", "unbalance": "big"}},
         "system.unbalance"),
        ("sweep", SFD_SWEEP, {"speeds": [900.0, "fast"]}, "speeds[1]"),
        ("sweep", SFD_SWEEP, {"speeds": {"start": "a", "stop": 1.0, "count": 2}},
         "speeds.start"),
        ("sweep", SFD_SWEEP, {"speeds": {"start": 1.0, "stop": None, "count": 2}},
         "speeds.stop"),
        ("sweep", SFD_SWEEP, {"speeds": {"start": 1.0, "stop": 2.0, "count": 2.5}},
         "speeds.count"),
        ("sweep", SFD_SWEEP, {"probe_nodes": ["0"]}, "probe_nodes[0]"),
        ("sweep", SFD_SWEEP, {"steady_fraction": "half"}, "steady_fraction"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": "x"}}, "newmark.dt"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": 1e-3, "beta": "0.25"}},
         "newmark.beta"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": 1e-3, "gamma": None}},
         "newmark.gamma"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": 1e-3, "tol_dx": [1e-10]}},
         "newmark.tol_dx"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": 1e-3, "tol_res": "1e-8"}},
         "newmark.tol_res"),
        ("solve", DUFFING_SOLVE, {"newmark": {"dt": 1e-3, "max_iter": 2.5}},
         "newmark.max_iter"),
        ("sweep", SFD_SWEEP, {"newmark": {"dt": 1e-4, "strategy": 1}},
         "newmark.strategy"),
        ("solve", DUFFING_SOLVE, {"t_end": float("nan")}, "t_end"),
        ("sweep", SFD_SWEEP, {"t_end": float("inf")}, "t_end"),
        ("solve", DUFFING_SOLVE, {"x0": [-float("inf")]}, "x0[0]"),
        ("solve", DUFFING_SOLVE, {"system": {"type": "dual_rotor", "file": 0}},
         "system.file"),
    ],
)
def test_wrong_value_type_exit_2(tmp_path, capsys, command, base, change, field):
    cfg = write_config(tmp_path / "c.json", dict(base, **change))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert f'"{field}"' in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"probe_nodes": [0, -1]}, "probe_nodes[1]"),
        ({"steady_fraction": 1.0}, "steady_fraction"),
        ({"speeds": []}, "speeds"),
        ({"probe_nodes": [0, 1]}, "probe_nodes[1]"),
        ({"t_end": 0}, "t_end"),
        ({"speeds": {"start": 800.0, "stop": 1000.0, "count": -1}}, "speeds.count"),
    ],
)
def test_sweep_value_out_of_range_exit_2(tmp_path, capsys, change, field):
    cfg = write_config(tmp_path / "c.json", dict(SFD_SWEEP, **change))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert f'"{field}"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("spectrum", ["--dt", "0.5"]), ("spectrum", ["--strategy", "broyden"]),
    ("spectrum", ["--seed", "9"]), ("solve", ["--seed", "9"]), ("sweep", ["--seed", "9"]),
])
def test_flag_the_command_does_not_read_exit_2(tmp_path, capsys, command, flag):
    # Each command registers only the flags it reads; argparse rejects the
    # others before the config is read.
    cfg = write_config(tmp_path / "c.json", DUFFING_SOLVE)
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", cfg, "--out", str(tmp_path / "o.csv"), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestSpectrum:
    def _write_sine_csv(self, path, w0=40.0, dt=1e-3, n=2000):
        t = dt * np.arange(n)
        with open(path, "w") as fh:
            fh.write("t,x_0\n")
            for ti, xi in zip(t, np.sin(w0 * t)):
                fh.write(f"{float(ti)!r},{float(xi)!r}\n")

    def test_sine_peak(self, tmp_path):
        sig = tmp_path / "sig.csv"
        n, dt = 2000, 1e-3
        w0 = 2 * math.pi * 10  # integer periods over the window
        self._write_sine_csv(sig, w0=w0, dt=dt, n=n)
        doc = {"schema_version": 1, "input": str(sig), "column": "x_0"}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        freqs = np.array([float(r[0]) for r in rows])
        mags = np.array([float(r[1]) for r in rows])
        assert freqs[np.argmax(mags)] == pytest.approx(w0, rel=1e-9)

    def test_missing_column(self, tmp_path):
        sig = tmp_path / "sig.csv"
        self._write_sine_csv(sig)
        doc = {"schema_version": 1, "input": str(sig), "column": "x_9"}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("field", ["input", "column"])
    def test_missing_field_exit_2(self, tmp_path, capsys, field):
        sig = tmp_path / "sig.csv"
        self._write_sine_csv(sig)
        doc = {"schema_version": 1, "input": str(sig), "column": "x_0"}
        del doc[field]
        cfg = write_config(tmp_path / "c.json", doc)
        out = str(tmp_path / "o.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 2
        assert f'"{field}"' in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [0, -0.001])
    def test_non_positive_dt_exit_2(self, tmp_path, capsys, dt):
        sig = tmp_path / "sig.csv"
        self._write_sine_csv(sig)
        doc = {"schema_version": 1, "input": str(sig), "column": "x_0", "dt": dt}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert '"dt"' in capsys.readouterr().err
        assert not out.exists()

    def _run_on_rows(self, tmp_path, times, **extra):
        sig = tmp_path / "sig.csv"
        with open(sig, "w") as fh:
            fh.write("t,x_0\n")
            for i, ti in enumerate(times):
                fh.write(f"{float(ti)!r},{float(i % 2)!r}\n")
        doc = {"schema_version": 1, "input": str(sig), "column": "x_0", **extra}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o.csv"
        status = main(["spectrum", "--config", cfg, "--out", str(out)])
        assert not out.exists() or status == 0
        return status

    def test_one_row_t_column_exit_2(self, tmp_path, capsys):
        assert self._run_on_rows(tmp_path, [0.0]) == 2
        assert 'column "t"' in capsys.readouterr().err

    def test_non_uniform_t_column_exit_2(self, tmp_path, capsys):
        assert self._run_on_rows(tmp_path, [0.0, 0.001, 0.003, 0.004]) == 2
        assert 'column "t"' in capsys.readouterr().err

    def test_one_row_with_dt_exit_2(self, tmp_path, capsys):
        assert self._run_on_rows(tmp_path, [0.0], dt=0.001) == 2
        assert '"input"' in capsys.readouterr().err

    def test_uniform_t_column_within_rounding(self, tmp_path):
        # The grid t0 + i*dt of a long solve steps unevenly in the last bits.
        assert self._run_on_rows(tmp_path, list(10.0 + 1e-3 * np.arange(64))) == 0

    def test_duffing_round_trip_dominant_bin(self, tmp_path):
        # solve -> spectrum: the forced Duffing response is dominated by
        # the drive frequency omega = 1.
        doc = dict(DUFFING_SOLVE, t_end=float(16 * math.pi), newmark={"dt": 4e-3})
        cfg = write_config(tmp_path / "c.json", doc)
        traj_csv = tmp_path / "traj.csv"
        assert main(["solve", "--config", cfg, "--out", str(traj_csv)]) == 0
        spec_doc = {"schema_version": 1, "input": str(traj_csv), "column": "x_0"}
        spec_cfg = write_config(tmp_path / "s.json", spec_doc)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", spec_cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        freqs = np.array([float(r[0]) for r in rows])
        mags = np.array([float(r[1]) for r in rows])
        assert freqs[np.argmax(mags)] == pytest.approx(1.0, abs=0.15)


class TestCheckJacobian:
    def _doc(self, system, **extra):
        doc = {
            "schema_version": 1,
            "system": system,
            "newmark": {"dt": 1e-3},
            "seed": 0,
            "n_states": 10,
        }
        doc.update(extra)
        return doc

    def test_duffing_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", self._doc({"type": "duffing"}))
        assert main(["check-jacobian", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_van_der_pol_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self._doc({"type": "van_der_pol"}))
        assert main(["check-jacobian", "--config", cfg]) == 0

    def test_linear_sdof_passes(self, tmp_path):
        # Duffing with beta=0 is a linear SDOF; its constant Jacobian
        # leaves only FD roundoff in the reported discrepancy.
        cfg = write_config(
            tmp_path / "c.json",
            self._doc({"type": "duffing", "beta": 0.0}, tol=1e-8),
        )
        assert main(["check-jacobian", "--config", cfg]) == 0

    @pytest.mark.parametrize("system", [{"type": "dual_rotor"},
                                        {"type": "sfd_rotor", "omega": 900.0}])
    def test_rotors_pass(self, tmp_path, capsys, system):
        # The dual rotor's Jacobian comes from its bearing-ball sites, the
        # SFD rotor's from AD of the whole film force.
        doc = self._doc(system, newmark={"dt": 1e-4}, scale=1e-5, fd_step=1e-10,
                        tol=1e-6)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check-jacobian", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", self._doc({"type": "duffing"}))
        assert main(["check-jacobian", "--config", cfg, "--seed", "7"]) == 0
        out1 = capsys.readouterr().out
        assert main(["check-jacobian", "--config", cfg, "--seed", "7"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

    @pytest.mark.parametrize(
        "field, value", [("fd_step", 0.0), ("fd_step", -1e-6), ("n_states", 0),
                         ("n_states", -3)])
    def test_vacuous_check_exit_2(self, tmp_path, capsys, field, value):
        doc = self._doc({"type": "duffing"}, **{field: value})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check-jacobian", "--config", cfg]) == 2
        assert f'"{field}"' in capsys.readouterr().err

    def test_checks_the_jacobian_the_solver_factors(self, tmp_path, monkeypatch,
                                                     capsys):
        # F_nl reads x[1], but nl_dofs declares DOF 0 alone, so the step
        # Jacobian misses its column 1 while the differences of F_nl do not.
        # The missing term is tiny beside c_a M, which the check leaves out.
        def f_nl(x, v, a, t):
            return [x[1] * x[1] * x[1], 0.0]

        system = DynamicSystem(n_dof=2, M=np.eye(2), C=np.zeros((2, 2)),
                               K=np.eye(2), F_nl=f_nl, nl_dofs=[0])
        monkeypatch.setattr(nnrad.cli, "_build_system", lambda spec: system)
        cfg = write_config(tmp_path / "c.json", self._doc({"type": "duffing"}))
        assert main(["check-jacobian", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_nan_discrepancy_fails(self, tmp_path, capsys):
        # x^3 overflows at this scale, so the differences are inf - inf.
        doc = self._doc({"type": "duffing"}, scale=1e110, n_states=3)
        cfg = write_config(tmp_path / "c.json", doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["check-jacobian", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "nan" in captured.out and "PASS" not in captured.out
