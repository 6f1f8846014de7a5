"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints `ACCEPTANCE n [PASS|FAIL] ...` directly to the terminal
(bypassing capture) and then asserts, so a plain `pytest -v` run shows
the per-criterion verdicts alongside the test results.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nnrad import (
    BROYDEN_RANK1,
    FULL_NEWTON,
    SIMPLIFIED_NEWTON,
    NewmarkConfig,
    State,
    ad,
    integrate,
    residual,
    rk4_integrate,
    step_terms,
    to_first_order,
)
from nnrad.analysis import amplitude, spectrum, steady_window, sweep
from nnrad.models import (
    BearingParams,
    bearing_force,
    default_dual_rotor_layout,
    duffing,
    gauss_legendre_15,
    pendulum,
    sfd_rotor_system,
    shaft_element_matrices,
    sommerfeld_integral,
    van_der_pol,
)
from nnrad.models.bearing import HERTZ_EXPONENT
from nnrad.models.rotor import assemble_dual_rotor
from nnrad.models.shaft import ShaftElementProps


@pytest.fixture
def verdict(capsys):
    def report(n, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}] {detail}")
        assert ok, f"criterion {n}: {detail}"

    return report


def fd_jacobian_of_residual(sys_, x1, p, h=1e-6):
    n = sys_.n_dof
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        rp = np.asarray(residual(x1 + e, p, sys_), dtype=float)
        rm = np.asarray(residual(x1 - e, p, sys_), dtype=float)
        J[:, j] = (rp - rm) / (2.0 * h)
    return J


def rel_jacobian_gap(J_ad, J_fd):
    return float(np.max(np.abs(J_ad - J_fd)) / max(np.max(np.abs(J_fd)), 1e-12))


def sfd_safe_state(rng, n):
    """Random 4-DOF SFD displacement vector with r safely inside (0, 1).

    States are drawn from the damper's operating regime (the shipped
    rotor runs near r ~ 0.26).  Outside it the comparison degrades for
    finite-difference reasons, not AD ones: near the concentric center
    the force curvature grows like 1/e^2, and toward film rupture the
    Sommerfeld integrals steepen like (1 - r^2)^(-5/2), so the h = 1e-6
    central difference loses accuracy while the AD Jacobian does not.
    """
    ecc = rng.uniform(0.15, 0.3) * 2.5e-4
    ang = rng.uniform(0.0, 2.0 * math.pi)
    x = np.array(
        [ecc * math.cos(ang), ecc * math.sin(ang),
         2e-6 * rng.standard_normal(), 2e-6 * rng.standard_normal()]
    )
    return x


def sfd_nondegenerate(p, x1):
    """Reject states whose implied squeeze motion nearly vanishes.

    The film force is smooth but its curvature grows without bound as
    (rdot, r*psidot) -> 0 (the precession angle arctan degenerates), so
    a central difference with fixed h cannot track the exact AD
    derivative there.  Physical trajectories never sit on that manifold.
    """
    l1, C_f = 0.894, 2.5e-4
    v1 = p.velocity(x1)
    u, w = x1[0] + x1[3] * l1, x1[1] - x1[2] * l1
    du, dw = v1[0] + v1[3] * l1, v1[1] - v1[2] * l1
    e = math.hypot(u, w)
    dr = (u * du + w * dw) / e / C_f
    rdpsi = (e / C_f) * (u * dw - w * du) / e**2
    return math.hypot(dr, rdpsi) > 400.0


class TestCriterion1ADExactness:
    N_STATES = 100
    TOL = 1e-6

    def _check_system(self, sys_, cfg, draw_x1, rng, accept=None):
        worst = 0.0
        n = sys_.n_dof
        for _ in range(self.N_STATES):
            while True:
                s = State(
                    t=float(rng.uniform(0.0, 0.5)),
                    x=draw_x1(rng),
                    v=0.1 * rng.standard_normal(n),
                    a=0.1 * rng.standard_normal(n),
                )
                x1 = draw_x1(rng)
                p = step_terms(sys_, s, cfg)
                if accept is None or accept(p, x1):
                    break

            J_ad = ad.jacobian(lambda z: residual(z, p, sys_), x1)
            J_fd = fd_jacobian_of_residual(sys_, x1, p)
            worst = max(worst, rel_jacobian_gap(J_ad, J_fd))
        return worst

    def test_ad_vs_fd_all_builtin_systems(self, verdict):
        cfg = NewmarkConfig(dt=1e-3)
        cases = [
            ("van_der_pol", van_der_pol(1.0),
             lambda rng: rng.standard_normal(1), None),
            ("duffing", duffing(), lambda rng: rng.standard_normal(1), None),
            ("pendulum", pendulum(), lambda rng: rng.standard_normal(1), None),
            ("sfd_rotor", sfd_rotor_system(900.0),
             lambda rng: sfd_safe_state(rng, 4), sfd_nondegenerate),
            ("dual_rotor", assemble_dual_rotor(default_dual_rotor_layout()),
             lambda rng: 0.5 * rng.standard_normal(40), None),
        ]
        worst = {}
        for name, sys_, draw, accept in cases:
            rng = np.random.default_rng(1234)
            worst[name] = self._check_system(sys_, cfg, draw, rng, accept)
        overall = max(worst.values())
        verdict(
            1,
            overall < self.TOL,
            "AD vs central-FD residual Jacobians, 100 random states/system: "
            f"worst rel gap {overall:.3e} < {self.TOL:.0e} "
            f"({', '.join(f'{k}={v:.1e}' for k, v in worst.items())})",
        )

    def test_duffing_analytic_jacobian(self, verdict):
        cfg = NewmarkConfig(dt=1e-3)
        sys_ = duffing()
        rng = np.random.default_rng(7)
        c_a = 1.0 / (cfg.beta * cfg.dt**2)
        c_v = cfg.gamma / (cfg.beta * cfg.dt)
        worst = 0.0
        for _ in range(50):
            s = State(0.0, rng.standard_normal(1), rng.standard_normal(1),
                      rng.standard_normal(1))
            x1 = rng.standard_normal(1)
            J_ad = ad.jacobian(
                lambda z: residual(z, step_terms(sys_, s, cfg), sys_), x1
            )
            J_ref = (
                c_a * sys_.M + c_v * sys_.C + sys_.K
                + 3.0 * 3.0 * np.diag(x1**2)
            )
            worst = max(
                worst, float(np.max(np.abs(J_ad - J_ref)) / np.max(np.abs(J_ref)))
            )
        verdict(
            1,
            worst < 1e-12,
            f"Duffing AD vs analytic step Jacobian: rel gap {worst:.3e} < 1e-12",
        )


class TestCriterion2MethodOrder:
    def test_newmark_and_rk4_orders(self, verdict):
        from nnrad import DynamicSystem

        sdof = DynamicSystem(n_dof=1, M=np.eye(1), C=np.zeros((1, 1)), K=np.eye(1))
        nm_errs = [
            abs(
                integrate(sdof, [1.0], [0.0], 0.0, 1.0, NewmarkConfig(dt=dt)).x[-1, 0]
                - math.cos(1.0)
            )
            for dt in (1e-2, 5e-3, 2.5e-3)
        ]
        nm_orders = [math.log2(nm_errs[i] / nm_errs[i + 1]) for i in range(2)]

        field = to_first_order(sdof)
        rk_errs = [
            abs(
                rk4_integrate(field, np.array([1.0, 0.0]), 0.0, 1.0, dt).x[-1, 0]
                - math.cos(1.0)
            )
            for dt in (0.1, 0.05, 0.025)
        ]
        rk_orders = [math.log2(rk_errs[i] / rk_errs[i + 1]) for i in range(2)]

        ok = all(1.8 <= p <= 2.2 for p in nm_orders) and all(
            3.8 <= p <= 4.2 for p in rk_orders
        )
        verdict(
            2,
            ok,
            f"measured orders: Newmark {[round(p, 3) for p in nm_orders]} in "
            f"[1.8, 2.2]; RK4 {[round(p, 3) for p in rk_orders]} in [3.8, 4.2]",
        )


class TestCriterion3BenchmarkAgreement:
    def test_nnr_vs_rk4_benchmarks(self, verdict):
        cfg = NewmarkConfig(dt=1e-3, strategy=SIMPLIFIED_NEWTON)
        gaps = {}
        for name, sys_ in (
            ("van_der_pol", van_der_pol(1.0)),
            ("duffing", duffing()),
            ("pendulum", pendulum()),
        ):
            traj = integrate(sys_, [2.0], [0.0], 0.0, 20.0, cfg)
            ref = rk4_integrate(
                to_first_order(sys_), np.array([2.0, 0.0]), 0.0, 20.0, 1e-3
            )
            gaps[name] = float(np.max(np.abs(traj.x[:, 0] - ref.x[:, 0])))
        worst = max(gaps.values())
        verdict(
            3,
            worst < 1e-3,
            "NNR-AD vs RK4 over [0, 20] at dt=1e-3 from (2, 0): worst max|dx| "
            f"{worst:.3e} < 1e-3 "
            f"({', '.join(f'{k}={v:.1e}' for k, v in gaps.items())})",
        )


class TestCriterion4PendulumEnergy:
    def test_energy_drift(self, verdict):
        cfg = NewmarkConfig(dt=1e-3, strategy=SIMPLIFIED_NEWTON)
        traj = integrate(pendulum(), [2.0], [0.0], 0.0, 100.0, cfg)
        E = 0.5 * traj.v[:, 0] ** 2 - np.cos(traj.x[:, 0])
        drift = float(np.max(np.abs(E - E[0])))
        verdict(
            4,
            drift < 1e-3,
            f"pendulum energy drift over [0, 100] at dt=1e-3: {drift:.3e} < 1e-3",
        )


class TestCriterion5Quadrature:
    def test_gauss_legendre_and_sommerfeld(self, verdict):
        t, w = gauss_legendre_15()
        max_err_29 = max(
            abs(float(np.sum(w * t**k)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0))
            for k in range(30)
        )
        err_30 = abs(float(np.sum(w * t**30)) - 2.0 / 31.0)

        worst_somm = 0.0
        for r in np.arange(0.0, 0.95, 0.1):
            for (l, m) in ((1, 1), (0, 2), (2, 0)):
                val = sommerfeld_integral(l, m, float(r), 0.3, 0.3 + math.pi)
                ref, _ = quad(
                    lambda th: math.sin(th) ** l
                    * math.cos(th) ** m
                    / (1.0 + r * math.cos(th)) ** 3,
                    0.3,
                    0.3 + math.pi,
                    limit=400,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
                worst_somm = max(worst_somm, abs(val - ref))
        ok = max_err_29 < 1e-12 and err_30 > 1e-12 and worst_somm < 1e-8
        verdict(
            5,
            ok,
            f"GL15 exact to deg 29 (err {max_err_29:.1e} < 1e-12), deg 30 "
            f"inexact (err {err_30:.1e} > 1e-12); Sommerfeld vs adaptive "
            f"oracle worst {worst_somm:.1e} < 1e-8 over r in [0, 0.9]",
        )


class TestCriterion6SFDTrend:
    def test_amplitude_decreases_with_speed(self, verdict):
        speeds = np.linspace(600.0, 1400.0, 21)
        cfg = NewmarkConfig(dt=1e-4, strategy=SIMPLIFIED_NEWTON)
        rows = sweep(
            lambda s: sfd_rotor_system(s), list(speeds), cfg, [0], t_end=1.0
        )
        ok = all(r.error is None for r in rows)
        amps = np.array([r.amplitudes[0] for r in rows if r.amplitudes is not None])
        decreasing = ok and bool(np.all(np.diff(amps) < 0.0))
        # Smoothness: adjacent relative changes stay modest (no spikes).
        smooth = ok and bool(
            np.all(np.abs(np.diff(amps)) < 0.2 * amps[:-1])
        )
        verdict(
            6,
            decreasing and smooth,
            f"SFD sweep 600->1400 rad/s ({len(speeds)} speeds): amplitude "
            f"strictly decreasing ({amps[0]:.3e} -> {amps[-1]:.3e}), "
            "adjacent steps < 20%",
        )


class TestCriterion7DualRotorAgreement:
    def test_steady_amplitudes_and_spectra(self, verdict):
        layout = default_dual_rotor_layout()
        sys_ = assemble_dual_rotor(layout)
        n = sys_.n_dof
        t_end, dt = 1.2, 1e-4
        cfg = NewmarkConfig(dt=dt, strategy=SIMPLIFIED_NEWTON)
        traj = integrate(sys_, np.zeros(n), np.zeros(n), 0.0, t_end, cfg)
        ref = rk4_integrate(
            to_first_order(sys_), np.zeros(2 * n), 0.0, t_end, dt
        )
        w_nnr = steady_window(traj, 0.3)
        w_rk4 = steady_window(ref, 0.3)
        rel_gaps = []
        for node in range(n // 4):
            a_n = amplitude(w_nnr.x[:, 4 * node], w_nnr.x[:, 4 * node + 1])
            a_r = amplitude(w_rk4.x[:, 4 * node], w_rk4.x[:, 4 * node + 1])
            rel_gaps.append(abs(a_n - a_r) / a_r)
        worst = max(rel_gaps)

        # Dominant spectral bin at a disk node must coincide.
        probe = 4 * layout.disks[0].node
        _, mag_n = spectrum(w_nnr.x[:, probe], dt)
        _, mag_r = spectrum(w_rk4.x[:, probe], dt)
        same_bin = int(np.argmax(mag_n)) == int(np.argmax(mag_r))
        verdict(
            7,
            worst < 0.01 and same_bin,
            "dual-rotor NNR-AD vs RK4 at dt=1e-4: worst per-node steady "
            f"amplitude gap {100 * worst:.3f}% < 1%; dominant spectral bin "
            f"shared: {same_bin}",
        )


class TestCriterion8StrategyEquivalence:
    def test_strategies_agree(self, verdict):
        gaps = {}
        iters = {}
        # Duffing over [0, 10].
        for strat in (FULL_NEWTON, SIMPLIFIED_NEWTON, BROYDEN_RANK1):
            cfg = NewmarkConfig(dt=1e-3, strategy=strat)
            traj = integrate(duffing(), [2.0], [0.0], 0.0, 10.0, cfg)
            gaps.setdefault("duffing", []).append(traj.x[:, 0])
            iters.setdefault("duffing", []).append(int(traj.iterations[1:].sum()))
        # SFD rotor over [0, 10] (coarser grid keeps this in budget; the
        # three strategies integrate the identical discretization).
        for strat in (FULL_NEWTON, SIMPLIFIED_NEWTON, BROYDEN_RANK1):
            cfg = NewmarkConfig(dt=1e-3, strategy=strat)
            traj = integrate(
                sfd_rotor_system(900.0), np.zeros(4), np.zeros(4), 0.0, 10.0, cfg
            )
            gaps.setdefault("sfd", []).append(traj.x)
            iters.setdefault("sfd", []).append(int(traj.iterations[1:].sum()))

        worst = 0.0
        for runs in gaps.values():
            for other in runs[1:]:
                worst = max(worst, float(np.max(np.abs(runs[0] - other))))
        # SimplifiedNewton cannot beat FullNewton on iteration counts.
        simplified_ge_full = all(v[1] >= v[0] for v in iters.values())
        verdict(
            8,
            worst < 1e-6 and simplified_ge_full,
            f"full/simplified/Broyden trajectories agree: worst max|dx| "
            f"{worst:.3e} < 1e-6 on Duffing and SFD over [0, 10]; total "
            f"iterations full<=simplified: {iters}",
        )


class TestCriterion9ElementMatrices:
    def test_rigid_body_and_positive_definiteness(self, verdict):
        worst_rb = 0.0
        min_eig = math.inf
        for length in (0.05, 0.15, 0.4):
            for area in (2e-4, 7e-4, 2e-3):
                for i_z in (1e-8, 4e-8, 2e-7):
                    for kappa in (0.2, 0.35, 0.6):
                        p = ShaftElementProps(
                            density=7850.0, length=length, area=area,
                            young=2.1e11, i_z=i_z, shear_factor=kappa,
                        )
                        M_s, _, K_s = shaft_element_matrices(p)
                        scale = float(np.max(np.abs(K_s)))
                        for vec in (
                            np.array([1.0, 0.0, 1.0, 0.0]),
                            np.array([0.0, 1.0, length, 1.0]),
                        ):
                            worst_rb = max(
                                worst_rb,
                                float(np.max(np.abs(K_s @ vec))) / scale,
                            )
                        min_eig = min(
                            min_eig, float(np.min(np.linalg.eigvalsh(M_s)))
                        )
        ok = worst_rb < 1e-9 and min_eig > 0.0
        verdict(
            9,
            ok,
            f"stiffness annihilates rigid-body vectors to {worst_rb:.1e} "
            f"(< 1e-9 of ||K_s||) and mass matrices stay positive definite "
            f"(min eigenvalue {min_eig:.3e} > 0) over 81 parameter sets",
        )


class TestCriterion10ContactSmoothness:
    def test_force_and_derivative_continuity(self, verdict):
        p = BearingParams(
            n_balls=1, k_hertz=1.0, clearance=0.0, r_inner=0.02, r_outer=0.04
        )
        h = 1e-9
        deltas = np.arange(-100, 101) * h
        forces = np.empty(deltas.size)
        derivs = np.empty(deltas.size)
        for i, d in enumerate(deltas):
            (x,) = ad.lift([float(d)])
            fx, _ = bearing_force(x, 0.0, 0.0, 0.0, 0.0, p)
            forces[i] = ad.value_of(fx)
            derivs[i] = fx.seeds[0] if isinstance(fx, ad.ADArray) else 0.0
        force_jump = float(np.max(np.abs(np.diff(forces))))
        deriv_jump = float(np.max(np.abs(np.diff(derivs))))
        kink_bound = HERTZ_EXPONENT * (2 * h) ** (HERTZ_EXPONENT - 1.0)
        ok = force_jump < 1e-6 and deriv_jump <= kink_bound
        verdict(
            10,
            ok,
            f"bearing force sweep through contact onset (step 1e-9): force "
            f"jump {force_jump:.1e} < 1e-6; derivative jump {deriv_jump:.3e} "
            f"<= relu_pow kink bound {kink_bound:.3e}",
        )
