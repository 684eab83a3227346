import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fctk.errors import BranchAmbiguity, DomainError
from fctk.fuss_catalan import FussCatalanDist, identity_check
from fctk.geometry import PhiCoordinate, f_deriv_at, rho_at, rho_deriv_at, rho_inv


def mp_angle(r, x):
    """phi with rho(phi) = x at 400 digits, bisecting log(pi/(r+1) - phi).

    The offset from pi/(r+1) is carried on its own, so x down to the
    smallest subnormal double resolves.
    """
    top = mp.pi / (r + 1)
    lo, hi = mp.mpf(-800), mp.log(top)
    for _ in range(200):
        mid = (lo + hi) / 2
        phi = top - mp.exp(mid)
        if mp.sin((r + 1) * phi) ** (r + 1) / (mp.sin(phi) * mp.sin(r * phi) ** r) < x:
            lo = mid
        else:
            hi = mid
    return top - mp.exp((lo + hi) / 2)


def mp_cdf(r, x):
    with mp.workdps(400):
        phi = mp_angle(r, mp.mpf(x))
        f = (r + 1) * phi - r * mp.sin((r + 1) * phi) * mp.sin(phi) / mp.sin(r * phi)
        return float(1 - f / mp.pi)


def mp_density(r, x):
    with mp.workdps(400):
        phi = mp_angle(r, mp.mpf(x))
        return float(
            mp.sin(phi) ** 2 * mp.sin(r * phi) ** (r - 1) / (mp.pi * mp.sin((r + 1) * phi) ** r)
        )


def test_density_phi_values():
    d1 = FussCatalanDist(1)
    assert d1.density_phi(PhiCoordinate(1, math.pi / 4)) == pytest.approx(
        1 / (2 * math.pi), rel=1e-14
    )
    d2 = FussCatalanDist(2)
    assert d2.density_phi(PhiCoordinate(2, math.pi / 6)) == pytest.approx(
        math.sqrt(3) / (8 * math.pi), rel=1e-14
    )
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        for i in range(1, 50):
            phi = i * math.pi / (r + 1) / 50
            assert d.density_phi(PhiCoordinate(r, phi)) > 0


def test_density_x():
    d1 = FussCatalanDist(1)
    assert d1.density_x(2.0) == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    # Marchenko-Pastur closed form on a grid
    for i in range(1, 200):
        x = 4 * i / 200
        assert d1.density_x(x) == pytest.approx(
            math.sqrt(4 - x) / (2 * math.pi * math.sqrt(x)), abs=1e-12
        )
    assert d1.density_x(4 - 1e-8) < 1e-4
    assert d1.density_x(-1.0) == 0.0
    assert d1.density_x(5.0) == 0.0
    # unbounded left edge for r >= 2
    d2 = FussCatalanDist(2)
    assert d2.density_x(1e-9) > d2.density_x(1e-6) > d2.density_x(1e-3) > 10


def test_cdf():
    d1 = FussCatalanDist(1)
    assert d1.cdf(2.0) == pytest.approx(0.5 + 1 / math.pi, abs=1e-13)
    # independent quadrature oracle over the Marchenko-Pastur density
    oracle, _ = quad(lambda t: math.sqrt(4 - t) / (2 * math.pi * math.sqrt(t)), 0, 2)
    assert d1.cdf(2.0) == pytest.approx(oracle, abs=1e-10)
    for d in (d1, FussCatalanDist(3)):
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(0.0) == 0.0
        assert d.cdf(d.support[1]) == 1.0
        assert d.cdf(100.0) == 1.0
        with pytest.raises(DomainError):
            d.cdf(math.nan)


def test_hard_edge_angle_and_cdf():
    # the angle of x near 0 stays below pi/(r+1) and meets the residual
    # contract; the law puts mass ~ x^(1/(r+1)) below x (9e-11 at r=3 and
    # 9e-9 at r=4 for x = 1e-40), so the cdf is held to a 400-digit value
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        for x in (1e-40, 1e-300, 5e-324):
            phi = rho_inv(r, x).phi
            assert abs(rho_at(r, phi) - x) <= 1e-14 * max(1.0, x)
            assert d.cdf(x) >= 0.0
            assert d.cdf(x) == pytest.approx(mp_cdf(r, x), abs=1e-12)
            if x < 1e-40:
                assert d.cdf(x) <= 1e-12


def test_density_x_near_the_hard_edge():
    # no double angle resolves these x; the closed form returned 2.0e29
    # (against 2.76e199) and 1.231e26 (against 1.2795e26)
    d = FussCatalanDist(2)
    for x in (1e-300, 1e-40):
        with pytest.raises(DomainError):
            d.density_x(x)
    assert mp_density(2, 1e-40) == pytest.approx(1.2795e26, rel=1e-4)
    assert d.density_x(1e-9) == pytest.approx(mp_density(2, 1e-9), rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-1.0, 10.0), max_size=30))
def test_array_cdf_matches_scalar_cdf(r, xs):
    d = FussCatalanDist(r)
    assert d.cdf(np.array(xs)).tolist() == [d.cdf(x) for x in xs]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 1.0))
def test_quantile_inverts_cdf(r, t):
    d = FussCatalanDist(r)
    x = 1e-3 + t * (d.support[1] - 2e-3)
    assert d.quantile(d.cdf(x)) == pytest.approx(x, abs=1e-10, rel=1e-10)


def test_cdf_density_consistency():
    h = 1e-6
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        hi = d.support[1]
        for frac in (0.15, 0.4, 0.6, 0.85):
            x = frac * hi
            fd = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
            assert fd == pytest.approx(d.density_x(x), abs=1e-6, rel=1e-5)


def test_quantile():
    d1 = FussCatalanDist(1)
    assert d1.quantile(0.5 + 1 / math.pi) == pytest.approx(2.0, abs=1e-10)
    rnd = np.random.default_rng(5)
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        for x in rnd.uniform(1e-3, d.support[1] - 1e-3, size=100):
            assert d.quantile(d.cdf(x)) == pytest.approx(x, abs=1e-10, rel=1e-10)
    assert d1.quantile(1 - 1e-12) > 4 - 1e-3
    with pytest.raises(DomainError):
        d1.quantile(0.0)
    with pytest.raises(DomainError):
        d1.quantile(1.5)


def test_moment_exact_tables():
    assert [FussCatalanDist(1).moment_exact(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [FussCatalanDist(2).moment_exact(n) for n in range(5)] == [1, 1, 3, 12, 55]
    for r in (1, 2, 3, 4, 7):
        assert FussCatalanDist(r).moment_exact(0) == 1


def test_moment_quadrature():
    assert FussCatalanDist(1).moment_quadrature(2) == pytest.approx(2.0, rel=1e-11)
    assert FussCatalanDist(2).moment_quadrature(3) == pytest.approx(12.0, rel=1e-11)
    assert FussCatalanDist(3).moment_quadrature(0) == pytest.approx(1.0, rel=1e-12)
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        for n in range(11):
            exact = d.moment_exact(n)
            assert abs(d.moment_quadrature(n) - exact) <= 1e-10 * exact


def test_density_normalization():
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        top = math.pi / (r + 1)

        def integrand(phi):
            if phi <= 0.0 or phi >= top:
                return 0.0
            c = PhiCoordinate(r, phi)
            return d.density_phi(c) * (-rho_deriv_at(r, phi))

        total, _ = quad(integrand, 0, top, epsabs=0, epsrel=1e-13, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_density_identity_three_way():
    # -f'/(pi rho') from the printed derivative formulas, from central
    # differences of f and rho, and the closed form must all agree
    from fctk.geometry import f_at

    h = 1e-5
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        top = math.pi / (r + 1)
        for i in range(1, 1000):
            phi = i * top / 1000
            closed = d.density_phi(PhiCoordinate(r, phi))
            printed = -f_deriv_at(r, phi) / (math.pi * rho_deriv_at(r, phi))
            assert abs(printed - closed) <= 1e-10 * closed
        for frac in (0.2, 0.5, 0.8):
            phi = frac * top
            df = (f_at(r, phi + h) - f_at(r, phi - h)) / (2 * h)
            drho = (rho_at(r, phi + h) - rho_at(r, phi - h)) / (2 * h)
            assert -df / (math.pi * drho) == pytest.approx(
                d.density_phi(PhiCoordinate(r, phi)), rel=1e-6
            )


def test_identity_check():
    lhs, rhs = identity_check(1, 1)
    assert rhs == 2
    assert abs(lhs - 2) <= 1e-9 * 2
    lhs, rhs = identity_check(2, 1)
    assert rhs == 3
    assert abs(lhs - 3) <= 1e-9 * 3
    lhs, rhs = identity_check(1, 3)
    assert rhs == math.comb(6, 3) == 20
    assert abs(lhs - 20) <= 1e-9 * 20
    lhs, rhs = identity_check(3, 0)
    assert rhs == 1 and abs(lhs - 1) <= 1e-9


def test_sampling():
    d = FussCatalanDist(2)
    s = d.sample(2000, seed=11)
    assert len(s) == 2000
    assert ((s > 0) & (s < d.support[1])).all()
    assert np.array_equal(s, d.sample(2000, seed=11))
    assert not np.array_equal(s, d.sample(2000, seed=12))
    assert d.sample(0, seed=1).size == 0


def test_sample_mean_large():
    # CLT check on the first moment: sigma^2 = m2 - m1^2 = 2 for r=2
    s = FussCatalanDist(2).sample(10**6, seed=3)
    assert abs(s.mean() - 1.0) < 0.01


def test_stieltjes_branch():
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        z = 1e8
        val = d.stieltjes(z)
        assert z * val == pytest.approx(1 + 1 / z, rel=1e-7)
        for z in (complex(12, 5), complex(-3, -4), 25.0):
            w = d.stieltjes(z) * z
            residual = abs(w ** (r + 1) - z * w + z)
            assert residual <= 1e-10 * (1 + abs(z)) * (1 + abs(w) ** (r + 1))
    with pytest.raises(DomainError):
        FussCatalanDist(2).stieltjes(1.0)
    with pytest.raises(BranchAmbiguity):
        FussCatalanDist(1).stieltjes(4.0 + 1e-9)


def test_stieltjes_matches_marchenko_pastur_quadrature():
    d = FussCatalanDist(1)
    for z in (4.5, 7.0, 20.0):
        oracle, _ = quad(
            lambda t: math.sqrt(4 - t) / (2 * math.pi * math.sqrt(t)) / (z - t),
            0,
            4,
            epsabs=0,
            epsrel=1e-12,
            limit=200,
        )
        assert d.stieltjes(z).real == pytest.approx(oracle, rel=1e-9)
        assert abs(d.stieltjes(z).imag) < 1e-12


def test_stieltjes_moments():
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        mom = d.stieltjes_moments(4)
        for n, value in enumerate(mom):
            exact = float(d.moment_exact(n))
            assert abs(value - exact) <= 1e-6 * exact
