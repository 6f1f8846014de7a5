"""Lock-step batches: every row has the bits of its own integrate run."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nnrad.analysis
import nnrad.models.sfd as sfd
from nnrad import DynamicSystem, NewmarkConfig, ad
from nnrad.analysis import sweep
from nnrad.models import FilmRuptureError, sfd_rotor_system
from nnrad.lockstep import integrate_rows
from nnrad.newmark import (
    STRATEGIES,
    NonConvergenceError,
    SingularJacobianError,
    integrate,
    solve_terms,
)

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
SPEEDS = [650.0, 900.0, 1150.0, 1390.0]
FIELDS = ("x", "v", "a", "iterations", "residual_norms")


def stored_start():
    """The sfd_sweep start: a state on the steady orbit at 1000 rad/s."""
    start = json.loads(REFERENCE.read_text())["sfd_sweep"]["start"]
    return np.array(start["x"]), np.array(start["v"])


def alone(sys_):
    """sys_ without a batch_key, so that sweep runs it through integrate."""
    return dataclasses.replace(sys_, batch_key=None)


def assert_same_rows(got, want):
    for g, w in zip(got, want):
        assert g.speed == w.speed
        assert g.error == w.error
        if w.amplitudes is None:
            assert g.amplitudes is None
        else:
            assert np.array_equal(g.amplitudes, w.amplitudes)


START = {"stored": (stored_start, 0.005), "rest": (lambda: (np.zeros(4), np.zeros(4)), 0.02)}


@pytest.fixture
def panel_calls(monkeypatch):
    """(rows, panel count) of every quadrature the film force runs on rows."""
    calls = []
    integral = sfd._film_integral

    def recorded(q, dq, jdq, qdq, qjdq, static, n_panels, p):
        if np.ndim(sfd.ad.value_of(q)) > 1:
            calls.append((len(sfd.ad.value_of(q)), n_panels))
        return integral(q, dq, jdq, qdq, qjdq, static, n_panels, p)

    monkeypatch.setattr(sfd, "_film_integral", recorded)
    return calls


class TestIntegrateRows:
    @pytest.mark.parametrize("start", sorted(START))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_equal_integrate(self, strategy, start, panel_calls):
        make_start, t_end = START[start]
        x0, v0 = make_start()
        cfg = NewmarkConfig(dt=1e-4, strategy=strategy)
        systems = [sfd_rotor_system(s) for s in SPEEDS]
        got = integrate_rows(systems, [x0] * 4, [v0] * 4, 0.0, t_end, cfg)
        for sys_, traj in zip(systems, got):
            want = integrate(sys_, x0, v0, 0.0, t_end, cfg)
            for name in FIELDS:
                assert np.array_equal(getattr(traj, name), getattr(want, name)), name
            assert np.array_equal(traj.t, want.t)
        if start == "rest":
            # From rest the rows pass the concentric floor together and then
            # reach eccentricity 0.25, where a second panel is needed, at
            # different steps: the quadrature runs on sub-batches.
            assert any(rows < len(SPEEDS) for rows, _ in panel_calls)
            assert any(n > 1 for _, n in panel_calls)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_converged_rows_take_zero_steps(self, strategy, step_core_steps):
        # From rest the rows need different numbers of iterations in some
        # steps.  A converged row stays in the batch, taking zero steps,
        # until the last row converges, and keeps the bits of its own run.
        cfg = NewmarkConfig(dt=1e-4, strategy=strategy)
        systems = [sfd_rotor_system(s) for s in (700.0, 900.0, 1100.0, 1300.0)]
        zeros = [np.zeros(4)] * 4
        got = integrate_rows(systems, zeros, zeros, 0.0, 0.005, cfg)
        assert step_core_steps == []
        iterations = np.array([traj.iterations for traj in got])
        assert (iterations.min(axis=0) < iterations.max(axis=0)).any()
        for sys_, traj in zip(systems, got):
            assert_same_outcome(traj, serial_run(sys_, zeros[0], zeros[0], 0.005, cfg))

    @pytest.mark.parametrize("start", sorted(START))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sweep_amplitudes_equal_serial(self, strategy, start, step_core_steps):
        make_start, t_end = START[start]
        x0, v0 = make_start()
        cfg = NewmarkConfig(dt=1e-4, strategy=strategy)
        got = sweep(sfd_rotor_system, SPEEDS, cfg, [0], t_end, x0=x0, v0=v0)
        # A healthy batch never falls back to the one-row step.
        assert step_core_steps == []
        want = sweep(lambda s: alone(sfd_rotor_system(s)), SPEEDS, cfg, [0], t_end,
                     x0=x0, v0=v0)
        assert all(row.error is None for row in want)
        assert_same_rows(got, want)


def narrow_system(k0, c_lin):
    """A batched 4-DOF system whose F_nl reads DOF 0 alone (2k <= n)."""
    P = np.zeros((4, 4))
    P[0, 0] = 1.0

    def f_nl(x, v, a, t):
        px = ad.matvec(P, x)
        return c_lin * px + 1e4 * px ** 3 + 0.5 * px * ad.matvec(P, v)

    return DynamicSystem(
        n_dof=4, M=np.eye(4), C=0.02 * np.eye(4), K=np.diag([k0, 2.0, 3.0, 4.0]),
        Q=lambda t: np.array([math.cos(7.0 * t), 0.5, math.sin(3.0 * t), 0.0]),
        F_nl=f_nl, nl_dofs=[0], batch_key=("narrow", c_lin))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rank_k_rows_equal_integrate(strategy):
    cfg = NewmarkConfig(dt=1e-3, strategy=strategy)
    c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)
    c_v = cfg.gamma / (cfg.beta * cfg.dt)
    # Row 1's stiffness cancels A_eff[0, 0], so its base has no f_B and
    # it is factored directly; F_nl keeps its Jacobian regular.
    systems = [narrow_system(k0, c_a + 10.0)
               for k0 in (1.0, -c_a - 0.02 * c_v, 5.0)]
    terms = [solve_terms(sys_, cfg) for sys_ in systems]
    assert [t.base.f_B is None for t in terms] == [False, True, False]
    x0 = [np.array([0.1, 0.0, 0.2, 0.0])] * 3
    got = integrate_rows(systems, x0, x0, 0.0, 0.3, cfg)
    for sys_, traj in zip(systems, got):
        want = integrate(sys_, x0[0], x0[0], 0.0, 0.3, cfg)
        for name in FIELDS:
            assert np.array_equal(getattr(traj, name), getattr(want, name)), name


DT = 1e-3
MAX_ITER = 4


def keyed_system(k0, load, nl_dofs):
    """A batched 4-DOF system whose F_nl reads DOF 0 and stops at t = 8.5 dt.

    With nl_dofs = [0] (2k <= n) its Jacobians are factored against
    A_eff; with [0, 1, 2] directly.
    """
    P = np.zeros((4, 4))
    P[0, 0] = 1.0
    c_lin = 1.0 / (0.25 * DT * DT) + 10.0

    def f_nl(x, v, a, t):
        px = ad.matvec(P, x)
        on = float(t < 8.5 * DT)
        return on * (c_lin * px + 1e4 * px ** 3 + 0.5 * px * ad.matvec(P, v))

    return DynamicSystem(
        n_dof=4, M=np.eye(4), C=0.02 * np.eye(4), K=np.diag([k0, 2.0, 3.0, 4.0]),
        Q=load, F_nl=f_nl, nl_dofs=list(nl_dofs), batch_key=("keyed", tuple(nl_dofs)))


def steady_load(t):
    return np.array([math.cos(7.0 * t), 0.5, math.sin(3.0 * t), 0.0])


def faulty_rows(nl_dofs, cfg):
    """Systems that fault at steps 6, 7 and 9 between two healthy ones.

    Row 1's Q turns NaN at step 6; row 2's load jumps at step 7 past
    what MAX_ITER iterations can meet; row 3's A_eff[0, 0] is 0, so its
    Jacobian turns exactly singular once F_nl stops at step 9.
    """
    c_a = 1.0 / (cfg.beta * cfg.dt * cfg.dt)
    c_v = cfg.gamma / (cfg.beta * cfg.dt)
    jump = np.array([1e8, 0.0, 0.0, 0.0])
    loads = [
        (1.0, steady_load),
        (1.0, lambda t: steady_load(t) * (math.nan if t > 5.5 * DT else 1.0)),
        (1.0, lambda t: steady_load(t) + (jump if t > 6.5 * DT else 0.0)),
        (-c_a - 0.02 * c_v, steady_load),
        (5.0, steady_load),
    ]
    return [keyed_system(k0, load, nl_dofs) for k0, load in loads]


@pytest.fixture
def step_core_steps(monkeypatch):
    """The step_index of every one-row newmark._step_core call, in call order."""
    steps = []
    step_core = nnrad.newmark._step_core

    def recorded(sys_, x, *args, step_index=0):
        if np.ndim(x) == 1:
            steps.append(step_index)
        return step_core(sys_, x, *args, step_index=step_index)

    monkeypatch.setattr(nnrad.newmark, "_step_core", recorded)
    return steps


def serial_run(sys_, x0, v0, t_end, cfg):
    """integrate's Trajectory for sys_, or the exception it raises."""
    try:
        return integrate(sys_, x0, v0, 0.0, t_end, cfg)
    except Exception as err:
        return err


def assert_same_outcome(got, want):
    """got equals integrate's outcome want: every field, or the whole error."""
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "__notes__", None) == getattr(want, "__notes__", None)
        assert (got.step_index, got.t) == (want.step_index, want.t)
        assert got.state.t == want.state.t
        for name in ("x", "v", "a"):
            assert np.array_equal(getattr(got.state, name), getattr(want.state, name))
    else:
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestFaultsInABatch:
    @pytest.mark.parametrize("nl_dofs", [(0,), (0, 1, 2)], ids=["rank_k", "direct"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_faulted_rows_leave_with_the_serial_errors(
            self, strategy, nl_dofs, step_core_steps):
        cfg = NewmarkConfig(dt=DT, strategy=strategy, max_iter=MAX_ITER)
        systems = faulty_rows(nl_dofs, cfg)
        terms = [solve_terms(sys_, cfg) for sys_ in systems]
        assert [t.base.f_B is None for t in terms] == (
            [False, False, False, True, False] if nl_dofs == (0,) else [True] * 5)
        x0 = np.array([0.1, 0.0, 0.2, 0.0])
        got = integrate_rows(systems, [x0] * 5, [x0] * 5, 0.0, 12 * DT, cfg)
        # Only the faulted steps run again row by row, for every live row.
        assert step_core_steps == [6] * 5 + [7] * 4 + [9] * 3

        want = [serial_run(sys_, x0, x0, 12 * DT, cfg) for sys_ in systems]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)
        nan_row, slow_row, singular_row = want[1:4]
        assert isinstance(nan_row, NonConvergenceError)
        assert nan_row.step_index == 6 and math.isnan(nan_row.res_norm)
        assert isinstance(slow_row, NonConvergenceError)
        assert slow_row.step_index == 7 and slow_row.iterations == MAX_ITER
        assert math.isfinite(slow_row.res_norm)
        assert isinstance(singular_row, SingularJacobianError)
        assert (singular_row.step_index, singular_row.pivot_index) == (9, 0)
        assert not isinstance(want[0], Exception)
        assert not isinstance(want[4], Exception)

    @pytest.mark.parametrize("nl_dofs", [(0,), (0, 1, 2)], ids=["rank_k", "direct"])
    def test_zero_broyden_step(self, nl_dofs, step_core_steps):
        # With both tolerances 0 a row at rest keeps R = 0 and dx = 0, and a
        # zero Broyden step raises at once; no row can converge.
        cfg = NewmarkConfig(dt=DT, strategy="broyden", tol_dx=0.0, tol_res=0.0,
                            max_iter=MAX_ITER)
        systems = [keyed_system(1.0, steady_load, nl_dofs),
                   keyed_system(1.0, lambda t: np.zeros(4), nl_dofs)]
        x0s = [np.array([0.1, 0.0, 0.2, 0.0]), np.zeros(4)]
        got = integrate_rows(systems, x0s, x0s, 0.0, 5 * DT, cfg)
        assert step_core_steps == [1, 1]
        want = [serial_run(sys_, x0, x0, 5 * DT, cfg) for sys_, x0 in zip(systems, x0s)]
        for g, w in zip(got, want):
            assert isinstance(w, NonConvergenceError)
            assert_same_outcome(g, w)
        assert want[1].res_norm == 0.0


def test_row_failing_at_start_leaves_with_the_serial_error(step_core_steps):
    # Row 1's load raises at t0, inside initial_acceleration.
    def load(t):
        if t == 0.0:
            raise RuntimeError("no load at t0")
        return steady_load(t)

    cfg = NewmarkConfig(dt=DT, strategy="full")
    systems = [keyed_system(k0, q, (0,))
               for k0, q in ((1.0, steady_load), (1.0, load), (5.0, steady_load))]
    x0 = np.array([0.1, 0.0, 0.2, 0.0])
    got = integrate_rows(systems, [x0] * 3, [x0] * 3, 0.0, 12 * DT, cfg)
    # The two other rows still run batched.
    assert step_core_steps == []
    want = [serial_run(sys_, x0, x0, 12 * DT, cfg) for sys_ in systems]
    assert isinstance(want[1], RuntimeError) and str(want[1]) == "no load at t0"
    assert type(got[1]) is RuntimeError and str(got[1]) == str(want[1])
    for g, w in zip(got[::2], want[::2]):
        assert_same_outcome(g, w)


def test_linear_rows_run_in_lock_step(step_core_steps):
    # The default F_nl returns zeros shaped like x, one state or rows, so
    # a keyed linear system runs every step in lock-step.
    cfg = NewmarkConfig(dt=DT)
    systems = [DynamicSystem(n_dof=4, M=np.eye(4), C=0.02 * np.eye(4),
                             K=np.diag([k0, 2.0, 3.0, 4.0]), Q=steady_load,
                             batch_key="linear") for k0 in (1.0, 5.0)]
    x0 = np.array([0.1, 0.0, 0.2, 0.0])
    got = integrate_rows(systems, [x0] * 2, [x0] * 2, 0.0, 10 * DT, cfg)
    assert step_core_steps == []
    for sys_, traj in zip(systems, got):
        assert_same_outcome(traj, serial_run(sys_, x0, x0, 10 * DT, cfg))


class TestSweepBatches:
    def test_batched_rows_skip_integrate(self, monkeypatch):
        # Keyed rows go to integrate_rows as one group, keyless rows one by one.
        sizes = []
        driver = nnrad.analysis.integrate_rows

        def counted(systems, *args):
            sizes.append(len(systems))
            return driver(systems, *args)

        monkeypatch.setattr(nnrad.analysis, "integrate_rows", counted)
        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        sweep(sfd_rotor_system, SPEEDS[:3], cfg, [0], 0.002)
        assert sizes == [3]
        del sizes[:]
        sweep(lambda s: alone(sfd_rotor_system(s)), SPEEDS[:3], cfg, [0], 0.002)
        assert sizes == [1, 1, 1]

    def test_rupturing_row_leaves_the_batch_with_the_serial_error(
            self, step_core_steps):
        def factory(speed):
            if speed == 1000.0:
                return sfd_rotor_system(speed, unbalance=5e-2)
            return sfd_rotor_system(speed)

        speeds = [900.0, 1000.0, 1100.0]
        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        got = sweep(factory, speeds, cfg, [0], 0.02)
        swept_steps = list(step_core_steps)
        want = sweep(lambda s: alone(factory(s)), speeds, cfg, [0], 0.02)
        assert want[1].error.startswith("FilmRuptureError: oil film ruptured")
        assert [row.error is None for row in want] == [True, False, True]
        assert_same_rows(got, want)

        systems = [factory(s) for s in speeds]
        zeros = [np.zeros(4)] * 3
        del step_core_steps[:]
        out = integrate_rows(systems, zeros, zeros, 0.0, 0.02, cfg)
        # Only the ruptured step runs again row by row, once per live row.
        assert swept_steps == step_core_steps == [out[1].step_index] * 3
        with pytest.raises(FilmRuptureError) as serial:
            integrate(systems[1], np.zeros(4), np.zeros(4), 0.0, 0.02, cfg)
        err = out[1]
        assert isinstance(err, FilmRuptureError)
        assert str(err) == str(serial.value)
        assert (err.step_index, err.t) == (serial.value.step_index, serial.value.t)
        assert err.state.t == serial.value.state.t
        for name in ("x", "v", "a"):
            assert np.array_equal(getattr(err.state, name), getattr(serial.value.state, name))

    def test_factory_failure_inside_a_batch(self):
        def factory(speed):
            if speed == 1000.0:
                raise RuntimeError("synthetic model failure")
            return sfd_rotor_system(speed)

        speeds = [900.0, 1000.0, 1100.0]
        cfg = NewmarkConfig(dt=1e-4, strategy="simplified")
        got = sweep(factory, speeds, cfg, [0], 0.01)
        want = sweep(lambda s: alone(factory(s)), speeds, cfg, [0], 0.01)
        assert got[1].error == "RuntimeError: synthetic model failure"
        assert got[1].amplitudes is None
        assert_same_rows(got, want)


class TestFilmForceRows:
    """Rows of every branch of the film force, against one row at a time."""

    def states(self):
        p = sfd.default_sfd_params()
        c = p.film_clearance
        # (q, dq) per row: concentric, static, 1, 5 and 10 panels, and a
        # second row of 1 panel.
        qs = [(0.0, 0.0), (0.3, 0.1), (0.05, 0.08), (0.3, -0.35), (0.6, 0.74),
              (-0.1, 0.02)]
        dqs = [(1.0, 2.0), (0.0, 0.0), (3.0, -1.0), (-2.0, 5.0), (40.0, 7.0),
               (0.5, 0.5)]
        x = np.array([[c * a, c * b, 0.0, 0.0] for a, b in qs])
        v = np.array([[c * a, c * b, 0.0, 0.0] for a, b in dqs])
        return x, v

    def test_float_rows(self):
        x, v = self.states()
        f = sfd_rotor_system(900.0).F_nl
        rows = f(x, v, np.zeros_like(x), 0.0)
        for i in range(len(x)):
            assert np.array_equal(rows[i], f(x[i], v[i], np.zeros(4), 0.0))

    def test_jacobian_rows(self):
        x, v = self.states()
        f = sfd_rotor_system(900.0).F_nl
        a = np.zeros_like(x)
        J = sfd.ad.jacobian(lambda z: f(z, v, a, 0.0), x)
        for i in range(len(x)):
            Ji = sfd.ad.jacobian(lambda z: f(z, v[i], a[i], 0.0), x[i])
            assert np.array_equal(J[i], Ji)

    def test_ruptured_row_raises(self):
        x, v = self.states()
        x[2, 0] = 1.5 * sfd.default_sfd_params().film_clearance
        with pytest.raises(FilmRuptureError):
            sfd_rotor_system(900.0).F_nl(x, v, np.zeros_like(x), 0.0)

    @staticmethod
    def journals(q0):
        """Three moving journals, in clearances, with q0 as the first."""
        q = np.array([q0, (0.1, 0.05), (-0.2, 0.1)])
        return q, np.array([(1.0, 2.0), (0.5, -0.3), (3.0, 0.0)])

    def test_nan_row_is_named(self):
        q, dq = self.journals((0.3, 0.1))
        q[1, 0] = math.nan
        with pytest.raises(ValueError, match="eccentricity of row 1 is not a number"):
            sfd._film_force_rows(q, dq, sfd.default_sfd_params())

    def test_nan_row_after_a_concentric_row_is_named(self):
        # The concentric row 0 leaves the moving rows 1 and 2, whose
        # forces are formed as a sub-batch; the error names the caller's row.
        q = np.array([(0.0, 0.0), (0.1, 0.05), (math.nan, 0.1)])
        dq = np.array([(1.0, 2.0), (0.5, -0.3), (3.0, 0.0)])
        with pytest.raises(ValueError, match="eccentricity of row 2 is not a number"):
            sfd._film_force_rows(q, dq, sfd.default_sfd_params())

    def test_infinite_row_ruptures(self):
        q, dq = self.journals((0.3, 0.1))
        q[2] = (math.inf, 0.0)
        with pytest.raises(FilmRuptureError, match="r=inf"):
            sfd._film_force_rows(q, dq, sfd.default_sfd_params())

    def test_row_at_the_concentric_floor_is_moving(self):
        p = sfd.default_sfd_params()
        floor = sfd._concentric_r2(p)
        a = math.sqrt(floor)
        assert a * a == floor  # r^2 of (a, 0) is exactly the floor
        q, dq = self.journals((a, 0.0))
        f = sfd._film_force_rows(q, dq, p)
        assert f[0].any()
        for i in range(len(q)):
            assert np.array_equal(f[i], sfd._film_force(q[i], dq[i], p))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rows_whose_force_reads_no_dof(strategy, step_core_steps):
    # nl_dofs = []: every step Jacobian is A_eff, with no AD pass.
    cfg = NewmarkConfig(dt=DT, strategy=strategy)
    systems = [DynamicSystem(n_dof=4, M=np.eye(4), C=0.02 * np.eye(4),
                             K=np.diag([k0, 2.0, 3.0, 4.0]), Q=steady_load,
                             nl_dofs=[], batch_key="linear") for k0 in (1.0, 5.0)]
    x0 = np.array([0.1, 0.0, 0.2, 0.0])
    got = integrate_rows(systems, [x0] * 2, [x0] * 2, 0.0, 10 * DT, cfg)
    assert step_core_steps == []
    for sys_, traj in zip(systems, got):
        assert_same_outcome(traj, serial_run(sys_, x0, x0, 10 * DT, cfg))
