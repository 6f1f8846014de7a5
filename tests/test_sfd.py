import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from nnrad import ad
from nnrad.models.sfd import (
    FilmRuptureError,
    SFDParams,
    _film_force,
    default_sfd_params,
    gauss_legendre_15,
    sfd_force,
    sfd_rotor_system,
    sommerfeld_integral,
)


def adaptive_oracle(l, m, r, th1, th2, atol=0.0, rtol=0.0):
    """The Sommerfeld integral by adaptive quadrature at epsrel 1e-13.

    quad's own error estimate must stay within atol + rtol |value|, the
    tolerance the caller compares against.  At 1e-13 quad may warn that
    roundoff keeps it from its requested tolerance; that warning alone is
    silenced, since the estimate is checked here instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            lambda t: math.sin(t) ** l * math.cos(t) ** m / (1.0 + r * math.cos(t)) ** 3,
            th1,
            th2,
            limit=400,
            epsabs=1e-13,
            epsrel=1e-13,
        )
    assert err <= atol + rtol * abs(val), (err, val)
    return val


class TestGaussLegendre:
    def test_weights_sum_to_two(self):
        _, w = gauss_legendre_15()
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)

    def test_nodes_symmetric(self):
        t, w = gauss_legendre_15()
        assert np.allclose(t, -t[::-1], atol=1e-14)
        assert np.allclose(w, w[::-1], atol=1e-14)

    def test_odd_monomials_vanish(self):
        t, w = gauss_legendre_15()
        for k in range(1, 30, 2):
            assert abs(np.sum(w * t**k)) < 1e-13

    def test_exact_through_degree_29(self):
        t, w = gauss_legendre_15()
        for k in range(0, 30, 2):
            exact = 2.0 / (k + 1)
            assert abs(np.sum(w * t**k) - exact) < 1e-12

    def test_degree_30_not_exact(self):
        t, w = gauss_legendre_15()
        err = abs(np.sum(w * t**30) - 2.0 / 31.0)
        assert err > 1e-12  # actual error ~3e-9: the rule's order is 29


class TestSommerfeldIntegral:
    def test_concentric_cos2(self):
        # r=0: plain integral of cos^2 over a half period = pi/2.
        assert sommerfeld_integral(0, 2, 0.0, 0.0, math.pi) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_concentric_sincos_vanishes(self):
        for th1 in (0.0, 0.4, -1.1, math.pi / 2):
            val = sommerfeld_integral(1, 1, 0.0, th1, th1 + math.pi)
            assert abs(val) < 1e-12

    def test_adaptive_oracle_midrange(self):
        val = sommerfeld_integral(2, 0, 0.5, math.pi / 2, 3 * math.pi / 2)
        ref = adaptive_oracle(2, 0, 0.5, math.pi / 2, 3 * math.pi / 2, atol=1e-8)
        assert abs(val - ref) < 1e-8

    def test_adaptive_oracle_r_grid(self):
        for r in np.arange(0.0, 0.95, 0.1):
            for (l, m) in ((1, 1), (0, 2), (2, 0)):
                for th1 in (0.0, 1.234, -0.7):
                    val = sommerfeld_integral(l, m, float(r), th1, th1 + math.pi)
                    ref = adaptive_oracle(l, m, float(r), th1, th1 + math.pi,
                                          atol=1e-8)
                    assert abs(val - ref) < 1e-8

    def test_film_rupture(self):
        with pytest.raises(FilmRuptureError):
            sommerfeld_integral(0, 2, 1.0, 0.0, math.pi)

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            sommerfeld_integral(3, 0, 0.1, 0.0, math.pi)

    def test_nan_eccentricity(self):
        with pytest.raises(ValueError, match="eccentricity is not a number"):
            sommerfeld_integral(0, 2, math.nan, 0.0, math.pi)

    def test_ad_derivative_wrt_r(self):
        (r,) = ad.lift([0.37])
        val = sommerfeld_integral(0, 2, r, 0.2, 0.2 + math.pi)
        h = 1e-7
        # Each oracle's error enters fd divided by 2h, against rel=1e-6.
        atol = 1e-6 * abs(val.seeds[0]) * h
        fd = (
            adaptive_oracle(0, 2, 0.37 + h, 0.2, 0.2 + math.pi, atol=atol)
            - adaptive_oracle(0, 2, 0.37 - h, 0.2, 0.2 + math.pi, atol=atol)
        ) / (2 * h)
        assert val.seeds[0] == pytest.approx(fd, rel=1e-6)


def oracle_sfd_force(x, y, tx, ty, vx, vy, vtx, vty, p, l1):
    """Independent re-implementation: plain floats + adaptive quadrature."""
    u = x + ty * l1
    w = y - tx * l1
    du = vx + vty * l1
    dw = vy - vtx * l1
    e = math.hypot(u, w)
    if e < 1e-12:
        return 0.0, 0.0
    de = (u * du + w * dw) / e
    dpsi = (u * dw - w * du) / (e * e)
    r = e / p.film_clearance
    dr = de / p.film_clearance
    rdpsi = r * dpsi
    if abs(rdpsi) < 1e-14 and abs(dr) < 1e-14:
        th1 = 0.0
    else:
        th1 = math.atan2(-dr, rdpsi)
    # The caller compares the force at rel 1e-6.
    i11 = adaptive_oracle(1, 1, r, th1, th1 + math.pi, rtol=1e-6)
    i02 = adaptive_oracle(0, 2, r, th1, th1 + math.pi, rtol=1e-6)
    i20 = adaptive_oracle(2, 0, r, th1, th1 + math.pi, rtol=1e-6)
    coef = p.viscosity * p.journal_radius * p.land_length**3 / p.film_clearance**2
    f_r = coef * (i11 * rdpsi + i02 * dr)
    f_t = coef * (i20 * rdpsi + i11 * dr)
    return f_r * u / e - f_t * w / e, f_r * w / e + f_t * u / e


_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def theta1_film_force(q, dq, p):
    """The film force from I_3^11, I_3^02 and I_3^20 over (theta1, theta1 + pi).

    theta1 = atan2(-r', r psi') is where the pressure changes sign; f_r
    and f_t act along q/r and its quarter turn.  q and dq are 2-vectors
    in clearances, floats or ADArrays; sommerfeld_integral uses the panel
    count of _film_force, so only rounding tells the two forms apart.
    """
    r = ad.sqrt(ad.dot(q, q))
    dr = ad.dot(q, dq) / r
    rdpsi = ad.dot(q, ad.matvec(_QUARTER_TURN, dq)) / r
    th1 = ad.atan2(-dr, rdpsi)
    i11, i02, i20 = (sommerfeld_integral(l, m, r, th1, th1 + math.pi)
                     for l, m in ((1, 1), (0, 2), (2, 0)))
    coef = p.viscosity * p.journal_radius * p.land_length**3 / p.film_clearance**2
    f_r = coef * (i11 * rdpsi + i02 * dr)
    f_t = coef * (i20 * rdpsi + i11 * dr)
    return (f_r * q - f_t * ad.matvec(_QUARTER_TURN, q)) / r


class TestFilmFrame:
    """The force integrated in the frame of dq against the theta1 form."""

    @staticmethod
    def journals():
        """(q, dq) rows in clearances at r = 0.15, 0.45 and 0.95, which take
        1, 5 and 10 panels, each with four squeeze velocities."""
        rng = np.random.default_rng(23)
        rows = []
        for r in (0.15, 0.45, 0.95):
            for _ in range(4):
                a, b = rng.uniform(0.0, 2 * math.pi, 2)
                speed = rng.uniform(0.5, 50.0)
                rows.append([r * math.cos(a), r * math.sin(a),
                             speed * math.cos(b), speed * math.sin(b)])
        return np.array(rows)

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_floats(self):
        p = default_sfd_params()
        z = self.journals()
        for zi in z:
            self.assert_close(_film_force(zi[:2], zi[2:], p),
                              theta1_film_force(zi[:2], zi[2:], p))
        f = _film_force(z[:, :2], z[:, 2:], p)
        for fi, zi in zip(f, z):
            self.assert_close(fi, theta1_film_force(zi[:2], zi[2:], p))

    def test_ad_seeds(self):
        p = default_sfd_params()
        z = self.journals()
        for zi in z:
            x = ad.lift(zi)
            want = theta1_film_force(x[:2], x[2:], p)
            got = _film_force(x[:2], x[2:], p)
            self.assert_close(got.value, want.value)
            self.assert_close(got.seeds, want.seeds)
        x = ad.lift(z)
        f = _film_force(x[:, :2], x[:, 2:], p)
        for fi, xi in zip(f, ad.lift(z)):
            want = theta1_film_force(xi[:2], xi[2:], p)
            self.assert_close(fi.value, want.value)
            self.assert_close(fi.seeds, want.seeds)


class TestSFDForce:
    def test_concentric_returns_zero(self):
        p = default_sfd_params()
        assert sfd_force(0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.0, 0.0, p, 0.894) == (
            0.0,
            0.0,
        )

    def test_circular_whirl_collapse(self):
        # Centered circular whirl: rdot = 0, so F_r and F_t reduce to the
        # single-term expressions in r*psidot.
        p = default_sfd_params()
        e = 0.4 * p.film_clearance
        psi, dpsi = 0.7, 120.0
        u, w = e * math.cos(psi), e * math.sin(psi)
        du, dw = -e * dpsi * math.sin(psi), e * dpsi * math.cos(psi)
        fx, fy = sfd_force(u, w, 0.0, 0.0, du, dw, 0.0, 0.0, p, 0.894)
        r = e / p.film_clearance
        th1 = math.atan2(0.0, r * dpsi)
        coef = p.viscosity * p.journal_radius * p.land_length**3 / p.film_clearance**2
        f_r = coef * adaptive_oracle(1, 1, r, th1, th1 + math.pi, rtol=1e-9) * r * dpsi
        f_t = coef * adaptive_oracle(2, 0, r, th1, th1 + math.pi, rtol=1e-9) * r * dpsi
        ref_x = f_r * u / e - f_t * w / e
        ref_y = f_r * w / e + f_t * u / e
        assert fx == pytest.approx(ref_x, rel=1e-9)
        assert fy == pytest.approx(ref_y, rel=1e-9)

    def test_independent_pipeline_oracle(self):
        p = default_sfd_params()
        rng = np.random.default_rng(33)
        for _ in range(15):
            ecc = rng.uniform(0.2, 0.8) * p.film_clearance
            ang = rng.uniform(0.0, 2 * math.pi)
            x, y = ecc * math.cos(ang), ecc * math.sin(ang)
            tx, ty = 1e-5 * rng.standard_normal(2)
            vx, vy, vtx, vty = 0.05 * rng.standard_normal(4)
            args = (x, y, tx, ty, vx, vy, vtx, vty, p, 0.894)
            fx, fy = sfd_force(*args)
            rx, ry = oracle_sfd_force(*args)
            scale = max(abs(rx), abs(ry), 1e-12)
            assert abs(float(fx) - rx) / scale < 1e-6
            assert abs(float(fy) - ry) / scale < 1e-6

    def test_ad_jacobian_vs_finite_differences(self):
        p = default_sfd_params()
        rng = np.random.default_rng(14)
        for _ in range(5):
            ecc = rng.uniform(0.25, 0.6) * p.film_clearance
            ang = rng.uniform(0.0, 2 * math.pi)
            state = np.array(
                [
                    ecc * math.cos(ang),
                    ecc * math.sin(ang),
                    1e-5 * rng.standard_normal(),
                    1e-5 * rng.standard_normal(),
                    0.05 * rng.standard_normal(),
                    0.05 * rng.standard_normal(),
                    0.01 * rng.standard_normal(),
                    0.01 * rng.standard_normal(),
                ]
            )

            def f(z):
                fx, fy = sfd_force(*z, p, 0.894)
                return [fx, fy]

            J_ad = ad.jacobian(f, state)
            J_fd = np.zeros((2, 8))
            for j in range(8):
                h = 1e-7 * (1.0 + abs(state[j]))
                zp, zm = state.copy(), state.copy()
                zp[j] += h
                zm[j] -= h
                fp = [float(v) for v in f(zp)]
                fm = [float(v) for v in f(zm)]
                J_fd[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
            denom = np.max(np.abs(J_fd))
            assert np.max(np.abs(J_ad - J_fd)) / denom < 1e-5

    def test_nan_journal(self):
        p = default_sfd_params()
        with pytest.raises(ValueError, match="eccentricity is not a number"):
            _film_force(np.array([math.nan, 0.1]), np.array([1.0, 2.0]), p)

    def test_film_rupture_at_clearance(self):
        p = default_sfd_params()
        with pytest.raises(FilmRuptureError) as exc:
            sfd_force(1.1 * p.film_clearance, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0,
                      p, 0.894)
        assert exc.value.r >= 1.0

    def test_long_bearing_warns(self):
        with pytest.warns(UserWarning):
            SFDParams(viscosity=6.76e-3, journal_radius=0.02, land_length=0.02,
                      film_clearance=2.5e-4)


class TestSFDRotorSystem:
    def test_default_parameters(self):
        sys_ = sfd_rotor_system(1000.0)
        assert np.allclose(np.diag(sys_.M), [37.62, 37.62, 0.8, 0.8])
        assert sys_.K[0, 0] == 5.4e6
        assert sys_.C[0, 0] == 2 * 265.0

    def test_gyroscopic_block_antisymmetric(self):
        omega = 1000.0
        sys_ = sfd_rotor_system(omega)
        assert sys_.C[2, 3] == pytest.approx(1.6 * omega)
        assert sys_.C[3, 2] == pytest.approx(-1.6 * omega)
        # Speed-dependent part of C is exactly the antisymmetric J_p block.
        base = sfd_rotor_system(0.0)
        G = sys_.C - base.C
        assert np.allclose(G, -G.T)

    def test_residual_at_zero_state(self):
        from nnrad import NewmarkConfig, State, residual, step_terms

        omega = 900.0
        sys_ = sfd_rotor_system(omega)
        cfg = NewmarkConfig(dt=1e-4)
        s = State(-cfg.dt, np.zeros(4), np.zeros(4), np.zeros(4))
        R = np.asarray(residual(np.zeros(4), step_terms(sys_, s, cfg), sys_),
                       dtype=float)
        amp = 6.508e-4 * omega**2
        assert R[0] == pytest.approx(-amp, rel=1e-12)
        assert abs(R[1]) < 1e-9
        assert R[2] == 0.0 and R[3] == 0.0

    def test_nan_state(self):
        x = np.array([math.nan, 0.5e-4, 0.0, 0.0])
        with pytest.raises(ValueError, match="eccentricity is not a number"):
            sfd_rotor_system(800.0).F_nl(x, np.ones(4), np.zeros(4), 0.0)

    def test_force_rows_mapping(self):
        sys_ = sfd_rotor_system(800.0)
        p = default_sfd_params()
        x = np.array([1e-4, 0.5e-4, 0.0, 0.0])
        v = np.array([0.05, -0.02, 0.0, 0.0])
        f = sys_.F_nl(x, v, np.zeros(4), 0.0)
        fx, fy = sfd_force(x[0], x[1], x[2], x[3], v[0], v[1], v[2], v[3], p, 0.894)
        assert float(f[0]) == pytest.approx(float(fx), rel=1e-12)
        assert float(f[1]) == pytest.approx(float(fy), rel=1e-12)
        assert float(f[2]) == pytest.approx(-float(fy) * 0.894, rel=1e-12)
        assert float(f[3]) == pytest.approx(float(fx) * 0.894, rel=1e-12)
