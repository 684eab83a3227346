import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fctk import geometry
from fctk.errors import BranchAmbiguity, DomainError, FctkError
from fctk.fuss_catalan import FussCatalanDist, identity_check
from fctk.geometry import (
    PhiCoordinate,
    f_deriv_at,
    rho_at,
    rho_deriv_at,
    rho_inv,
    saddle_modulus_at,
)


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


def _mp_phi_of_f(r, target):
    """phi with f(phi) = target at the current mp precision, bisecting log(phi)."""
    lo, hi = mp.mpf(10) ** -60, mp.pi / (r + 1) / 2
    for _ in range(400):
        mid = mp.sqrt(lo * hi)
        if geometry.f_at(r, mid, mp) < target:
            lo = mid
        else:
            hi = mid
    return lo


def test_quantile_within_1e_16_of_one():
    # 1 - p is taken exactly, so p = 1 - 1e-17 asks for an angle near 2e-6
    # and rho_at reads its sines as ratios: this raised ZeroDivisionError
    # while p was rounded to 1 first and sin(phi) sin(r phi)^r underflowed
    for r in (1, 2, 3, 6):
        d = FussCatalanDist(r)
        for k in (17, 30, 400):
            p = Fraction(1) - Fraction(1, 10**k)
            x = d.quantile(p)
            with mp.workdps(80):
                want = rho_at(r, _mp_phi_of_f(r, mp.pi * mp.mpf(10) ** -k), mp)
                assert abs(x - want) <= 2e-15 * want
            assert abs(d.cdf(x) - p) <= 1e-12
    x = FussCatalanDist(1).quantile(Fraction(1) - Fraction(1, 10**17))
    assert 4.0 - 1e-10 < x < 4.0


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
    # a fractional order is a real integral: the mean singular value of the
    # quarter-circle law, 8/(3 pi)
    assert FussCatalanDist(1).moment_quadrature(0.5) == pytest.approx(8 / (3 * math.pi), rel=1e-10)
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


def test_identity_check_at_large_n():
    # the sine powers of the integrand, taken apart, underflow near t = 0
    # from n = 50 (r = 1), 35 (r = 2) and 27 (r = 3); one power of rho does not
    for r in (1, 2, 3):
        for n in (50, 100, 300):
            lhs, rhs = identity_check(r, n)
            assert abs(lhs - rhs) <= 1e-12 * rhs, (r, n)
    # x_star(5)^300 is past the double range
    with pytest.raises(DomainError):
        identity_check(5, 300)


def test_quadratures_pass_rho_at_interior_angles_only(monkeypatch):
    # moment_quadrature and identity_check keep no end-point branch: QUADPACK's
    # Gauss-Kronrod rules sample interior nodes only, and a SciPy that starts
    # sampling an end point fails here
    seen = []

    def spy(r, phi):
        seen.append(phi)
        return rho_at(r, phi)

    monkeypatch.setattr(geometry, "rho_at", spy)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for n in (0, 1, 4, 25):
            for run in (FussCatalanDist(r).moment_quadrature, lambda n: identity_check(r, n)):
                seen.clear()
                run(n)
                assert seen and all(0 < phi < top for phi in seen), (r, n, run)


def test_quadrature_failure_is_raised():
    from fctk.errors import QuadratureFailure
    from fctk.fuss_catalan import _quad

    # 1/|t - 1/3| is not integrable; t = 1/3 is no node, 1/2 would be
    with pytest.raises(QuadratureFailure, match="bad integrand"):
        _quad(lambda t: 1 / abs(t - 1 / 3), 0.0, 1.0)


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
    # 1e-9 right of the edge the two real roots are 6e-5 apart
    z = 4.0 + 1e-9
    closed = (1 - mp.sqrt(1 - 4 / mp.mpf(z))) / 2
    assert FussCatalanDist(1).stieltjes(z) == pytest.approx(float(closed), rel=1e-9)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 8))
def test_stieltjes_moments_within_their_bound(r, n_max):
    # the bound of the docstring, recomputed from w = z F(z) at the same nodes
    d = FussCatalanDist(r)
    points = 32
    radius = 2 * float(geometry.x_star(r))
    nodes = [radius * cmath.exp(2j * math.pi * k / points) for k in range(points)]
    ws = [z * d.stieltjes(z) for z in nodes]
    disc = max(
        64 * 2.0**-52 * (abs(w) ** (r + 1) + abs(z * w) + abs(z)) / abs((r + 1) * w**r - z)
        for z, w in zip(nodes, ws)
    )
    rounding = disc + points * 2.0**-53 * max(map(abs, ws))
    for n, value in enumerate(d.stieltjes_moments(n_max)):
        exact = float(d.moment_exact(n))
        aliasing = exact * 2.0**-points / (1 - 2.0**-points)
        assert abs(value - exact) <= aliasing + radius**n * rounding
        assert abs(value - exact) <= 1e-9 * exact


def test_stieltjes_moments_edge_inputs_raise():
    # the rounding bound grows as 2^n against m_n and passes 1e-8 of it by n = 12
    for r in (1, 2, 3, 4, 5):
        d = FussCatalanDist(r)
        for n_max in (12, 20, 30, 31, 32, 60, -1):
            with pytest.raises(DomainError):
                d.stieltjes_moments(n_max)


def stieltjes_problems(r, z, value):
    """Residual of w = z F, the Herglotz sign and |F| dist(z, cut) <= 1."""
    w = z * value
    problems = []
    if abs(w ** (r + 1) - z * w + z) > 1e-12 * (abs(w) ** (r + 1) + abs(z * w) + abs(z)):
        problems.append("residual")
    if z.imag != 0 and not value.imag * z.imag < 0:
        problems.append("herglotz")
    xs = float(geometry.x_star(r))
    if abs(value) * abs(z - min(max(z.real, 0.0), xs)) > 1 + 1e-12:
        problems.append("bound")
    return problems


def test_stieltjes_near_the_cut():
    # within 1e-9 of the cut w sits on the boundary saddle a(phi) e^{-+i phi}
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        for frac in np.linspace(0.01, 0.99, 25):
            x = frac * d.support[1]
            phi = rho_inv(r, x).phi
            saddle = saddle_modulus_at(r, phi) * cmath.exp(1j * phi)
            for sign in (1, -1):
                z = complex(x, sign * 1e-9)
                w = z * d.stieltjes(z)
                assert abs(w - (saddle.conjugate() if sign > 0 else saddle)) <= 1e-6
                z = complex(x, sign * 1e-3)
                assert stieltjes_problems(r, z, d.stieltjes(z)) == []


def test_stieltjes_matches_the_series():
    # F(z) = sum FC_k z^-(k+1) for |z| > x_star; the tail past 120 terms is below 2^-100
    for r in (1, 2, 3, 4, 5):
        d = FussCatalanDist(r)
        for scale in (2.0, 5.0, 1e3):
            for angle in (0.0, 0.7, 2.0, math.pi, -1.3):
                z = scale * d.support[1] * cmath.exp(1j * angle)
                series, power = 0j, 1 / z
                for k in range(120):
                    series += math.comb((r + 1) * k, k) / (r * k + 1) * power
                    power /= z
                assert abs(d.stieltjes(z) - series) <= 1e-12 * abs(series)


def test_stieltjes_matches_density_quadrature():
    # F(z) = (1/pi) integral of f'(phi) / (z - rho(phi)) over the angle interval
    for r in (2, 3):
        d = FussCatalanDist(r)
        xs = d.support[1]
        top = math.pi / (r + 1)
        for z in (0.5 * xs + 0.01j, 0.5 * xs - 0.01j, 0.1 * xs + 0.05j, 0.9 * xs - 0.02j,
                  xs + 0.01, -0.01 + 0j, -0.01 + 0.01j, complex(3, 4)):

            def kernel(phi, part):
                return part(f_deriv_at(r, phi) / (math.pi * (z - rho_at(r, phi))))

            peak = [rho_inv(r, z.real).phi] if 0 < z.real < xs else None
            parts = [
                quad(kernel, 0.0, top, args=(part,), points=peak, epsabs=0, epsrel=1e-13,
                     limit=400)[0]
                for part in (lambda v: v.real, lambda v: v.imag)
            ]
            oracle = complex(*parts)
            assert abs(d.stieltjes(z) - oracle) <= 1e-9 * abs(oracle)


def test_stieltjes_edge_inputs():
    d = FussCatalanDist(2)
    for z in (math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(1.0, math.inf)):
        with pytest.raises(DomainError):
            d.stieltjes(z)
    # F = 1/z + 1/z^2 + ...; the trinomial's terms overflow past |z| = 1e100
    z = 1e100 * cmath.exp(1j)
    assert abs(d.stieltjes(z) - 1 / z) <= 1e-15 * abs(1 / z)
    with pytest.raises(FctkError):
        d.stieltjes(1e300 * (1 + 1j))
    # next to the hard edge; the continuation refused both for its path clearance
    for r in (1, 2, 3, 4, 5):
        for z in (complex(-1e-300), 1e-300j):
            assert stieltjes_problems(r, z, FussCatalanDist(r).stieltjes(z)) == []


def test_stieltjes_ambiguous_next_to_the_soft_edge():
    # one ulp right of x_star the two real roots are closer than their error
    for r in (1, 2, 3, 4):
        z = math.nextafter(float(geometry.x_star(r)), math.inf)
        with pytest.raises(BranchAmbiguity):
            FussCatalanDist(r).stieltjes(z)


def _count_solves(monkeypatch):
    calls = []
    solve = geometry.solve_trinomial

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(geometry, "solve_trinomial", counted)
    return calls


def test_one_trinomial_solve_per_value(monkeypatch):
    calls = _count_solves(monkeypatch)
    d = FussCatalanDist(3)
    d.stieltjes(complex(3, 7))
    assert len(calls) == 1
    d.stieltjes_moments(4)
    assert len(calls) == 1 + 32


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(-0.5, 1.5),
    st.floats(-16.0, 2.0),
    st.sampled_from((1.0, -1.0, 0.0)),
)
def test_stieltjes_property(r, t, log_gap, side):
    # z from 1e-16 to 100 off the cut, or on the real axis outside it
    d = FussCatalanDist(r)
    xs = d.support[1]
    z = complex(t * xs, side * 10.0**log_gap)
    if side == 0.0 and 0.0 <= z.real <= xs:
        gap = 10.0**log_gap
        z = complex(max(xs + gap, math.nextafter(xs, math.inf)) if t > 0.5 else -gap)
    try:
        value = d.stieltjes(z)
    except BranchAmbiguity:
        return
    assert stieltjes_problems(r, z, value) == []
    if r == 1:
        closed = complex((1 - mp.sqrt(1 - 4 / mp.mpc(z))) / 2)
        assert abs(value - closed) <= 1e-6 * abs(closed)
        assert abs(value - closed) < abs(value - (1 - closed))
