import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fctk import geometry
from fctk.errors import DomainError
from fctk.geometry import (
    PhiCoordinate,
    f_at,
    f_deriv_at,
    rho_at,
    rho_deriv_at,
    rho_inv,
    saddle_modulus_at,
    solve_phi,
    solve_trinomial,
    x_star,
)


def g_shift(r, nu, phi, lib=math):
    """The phase shift g over the d-factor sines of one angle."""
    return geometry._g_shift(r, nu, phi, *geometry._d_sines(r, phi, lib), lib)


def saddles(r, phi):
    """The conjugate pair a(phi) e^{+-i phi}."""
    w = saddle_modulus_at(r, phi) * complex(math.cos(phi), math.sin(phi))
    return w, w.conjugate()


def test_phi_domain_is_strictly_open():
    PhiCoordinate(2, 1e-12)
    with pytest.raises(DomainError):
        PhiCoordinate(2, 0.0)
    with pytest.raises(DomainError):
        PhiCoordinate(2, math.pi / 3)
    with pytest.raises(DomainError):
        PhiCoordinate(0, 0.1)


def test_x_star():
    assert x_star(1) == 4
    assert x_star(2) == Fraction(27, 4)
    assert x_star(3) == Fraction(256, 27)


def test_rho_values():
    assert rho_at(1, math.pi / 4) == pytest.approx(2.0, abs=1e-14)
    assert rho_at(2, math.pi / 6) == pytest.approx(8 / 3, rel=1e-14)
    # r=1 closed form rho = 4 cos^2(phi), limit x_star at phi -> 0
    assert rho_at(1, 1e-8) == pytest.approx(4.0, rel=1e-12)


def test_rho_inv_examples_and_round_trip():
    assert rho_inv(1, 2.0).phi == pytest.approx(math.pi / 4, rel=1e-13)
    assert rho_inv(2, 8 / 3).phi == pytest.approx(math.pi / 6, rel=1e-13)
    assert rho_inv(1, 3.999999).phi < 1e-3
    with pytest.raises(DomainError):
        rho_inv(1, 4.0)
    with pytest.raises(DomainError):
        rho_inv(2, -0.5)
    import random

    rnd = random.Random(8)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for _ in range(100):
            phi = rnd.uniform(0.001, 0.999) * top
            back = rho_inv(r, rho_at(r, phi)).phi
            assert abs(back - phi) <= 1e-12


def test_f_phase():
    assert f_at(1, math.pi / 4) == pytest.approx(math.pi / 2 - 1, abs=1e-15)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        assert f_at(r, 1e-9 * top) == pytest.approx(0.0, abs=1e-8)
        assert f_at(r, (1 - 1e-9) * top) == pytest.approx(math.pi, abs=1e-7)


def test_monotonicity_grids():
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        grid = [(i + 1) * top / (10**4 + 2) for i in range(10**4)]
        rho_vals = [rho_at(r, p) for p in grid]
        f_vals = [f_at(r, p) for p in grid]
        assert all(a > b for a, b in zip(rho_vals, rho_vals[1:]))
        assert all(a < b for a, b in zip(f_vals, f_vals[1:]))


def test_g_shift():
    # 1 - (r sin(phi)/sin(r phi)) e^{i(r+1)phi} = 1 - i at r=1, phi=pi/4,
    # so the argument term contributes +pi/8 and g vanishes there
    assert g_shift(1, (0,), math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    # closed form for r=1, nu=(0): g = pi/4 - phi
    for phi in (0.3, 0.7, 1.1, 1.5):
        assert g_shift(1, (0,), phi) == pytest.approx(
            math.pi / 4 - phi, abs=1e-13
        )
    # continuity on a dense grid (the atan2 form has no branch jumps)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        prev = None
        for i in range(1, 2000):
            val = g_shift(r, (1,) * r, i * top / 2000)
            assert math.isfinite(val)
            if prev is not None:
                assert abs(val - prev) < 0.05
            prev = val


def test_laguerre_phase_convention():
    # r=1, nu=(0): n f + g equals -(n(sin 2phi - 2phi) + phi - pi/4), and the
    # literal cosine argument -n f + g is the classical phase itself
    n = 37
    for phi in (0.4, 0.9, 1.3):
        f, g = f_at(1, phi), g_shift(1, (0,), phi)
        classical = n * (math.sin(2 * phi) - 2 * phi) - phi + math.pi / 4
        assert n * f + g == pytest.approx(-(
            n * (math.sin(2 * phi) - 2 * phi) + phi - math.pi / 4
        ), abs=1e-10)
        assert -n * f + g == pytest.approx(classical, abs=1e-10)


def test_saddle_points_examples():
    w_plus, w_minus = saddles(1, math.pi / 4)
    assert w_plus == pytest.approx(1 + 1j, abs=1e-14)
    assert w_minus == w_plus.conjugate()
    assert abs(w_plus**2 - 2 * w_plus + 2) < 1e-13

    w_plus, _ = saddles(2, math.pi / 6)
    a = math.sin(math.pi / 2) / math.sin(math.pi / 3)
    assert abs(w_plus) == pytest.approx(a, rel=1e-14)
    assert saddle_modulus_at(2, math.pi / 6) == pytest.approx(a, rel=1e-14)
    x = rho_at(2, math.pi / 6)
    assert abs(w_plus**3 - x * w_plus + x) < 1e-12


def test_saddle_residual_random():
    import random

    rnd = random.Random(4)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for _ in range(100):
            phi = rnd.uniform(0.01, 0.99) * top
            x = rho_at(r, phi)
            for w in saddles(r, phi):
                res = abs(w ** (r + 1) - x * w + x)
                assert res <= 1e-12 * (1 + abs(x)) * (1 + abs(w) ** (r + 1))


def test_solve_trinomial():
    roots = sorted(solve_trinomial(1, 2), key=lambda z: z.imag)
    assert roots[0] == pytest.approx(1 - 1j, abs=1e-12)
    assert roots[1] == pytest.approx(1 + 1j, abs=1e-12)

    # double root at the edge: w^2 - 4w + 4 = (w - 2)^2
    for w in solve_trinomial(1, 4):
        assert w == pytest.approx(2.0, abs=1e-6)

    for w in solve_trinomial(2, 27 / 4):
        assert abs(w**3 - 27 / 4 * w + 27 / 4) < 1e-9
    close = [w for w in solve_trinomial(2, 27 / 4) if abs(w - 1.5) < 1e-5]
    assert len(close) == 2

    with pytest.raises(DomainError):
        solve_trinomial(2, 0)
    for x in (math.nan, math.inf, complex(1, math.inf), 1e300 * (1 + 1j)):
        with pytest.raises(DomainError):
            solve_trinomial(2, x)


def test_trinomial_residual_check_raises(monkeypatch):
    # companion roots moved by 0.5 keep a relative residual (about 0.019 at
    # r=2, x=3+1j) that two Newton steps per root do not polish away
    import numpy as np

    from fctk.errors import ConvergenceFailure

    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda coeffs: roots(coeffs) + 0.5)
    with pytest.raises(ConvergenceFailure, match="r=2"):
        solve_trinomial(2, 3 + 1j)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(-300.0, 100.0),
    st.floats(-math.pi, math.pi),
    st.floats(-16.0, 0.0),
)
def test_trinomial_residual_property(r, log_mod, angle, log_gap):
    # z anywhere from 1e-300 to 1e100 in modulus, and z within 1e-16..1 of the cut
    xs = float(x_star(r))
    far = 10.0**log_mod * complex(math.cos(angle), math.sin(angle))
    near = complex((angle + math.pi) / (2 * math.pi) * xs, math.copysign(10.0**log_gap, angle))
    for z in (far, near):
        if z.imag == 0 and 0 <= z.real <= xs:
            continue
        if abs(z) > 1e100:
            # cos + i sin can round to a modulus above 1, which puts a draw
            # at log_mod = 100 just outside the domain
            with pytest.raises(DomainError):
                solve_trinomial(r, z)
            continue
        roots = solve_trinomial(r, z)
        assert len(roots) == r + 1
        for w in roots:
            res = abs(w ** (r + 1) - z * w + z)
            assert res <= 1e-10 * (1 + abs(z)) * (1 + abs(w) ** (r + 1))
            assert res <= 1e-10 * (abs(w) ** (r + 1) + abs(z * w) + abs(z))


def test_trinomial_contains_saddles():
    import random

    rnd = random.Random(11)
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for _ in range(25):
            phi = rnd.uniform(0.02, 0.98) * top
            roots = solve_trinomial(r, rho_at(r, phi))
            for target in saddles(r, phi):
                assert min(abs(w - target) for w in roots) < 1e-10


def test_derivative_formulas_match_finite_differences():
    h = 1e-6
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for frac in (0.15, 0.4, 0.65, 0.9):
            phi = frac * top
            fd_f = (f_at(r, phi + h) - f_at(r, phi - h)) / (2 * h)
            fd_rho = (rho_at(r, phi + h) - rho_at(r, phi - h)) / (2 * h)
            assert f_deriv_at(r, phi) == pytest.approx(fd_f, rel=1e-7, abs=1e-7)
            assert rho_deriv_at(r, phi) == pytest.approx(fd_rho, rel=1e-7)


def _outcome(form):
    """The bytes of form(), or the type of the arithmetic error it raises."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(form(), dtype=float).tobytes()
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from(["math", "numpy"]),
        )
    )
)
def test_public_forms_equal_their_shared_sines_forms(case):
    # each *_at form is its spelling over given sines, bit for bit, on
    # double scalars (math) and on arrays (numpy)
    r, frac, backend = case
    phi = frac * math.pi / (r + 1)
    assume(0.0 < phi < math.pi / (r + 1))
    lib = math
    if backend == "numpy":
        lib, phi = np, np.array([phi, phi / 3])
    s1, sr = lib.sin(phi), lib.sin(r * phi)
    sr1, cr1 = lib.sin((r + 1) * phi), lib.cos((r + 1) * phi)
    pairs = [
        (lambda: rho_at(r, phi, lib), lambda: geometry._rho(r, s1, sr, sr1)),
        (lambda: saddle_modulus_at(r, phi, lib), lambda: geometry._saddle_modulus(sr, sr1)),
        (lambda: f_at(r, phi, lib), lambda: geometry._f(r, phi, s1, sr, sr1)),
        (lambda: f_deriv_at(r, phi, lib), lambda: geometry._f_deriv(r, s1, sr, sr1, cr1)),
    ]
    for public, shared in pairs:
        assert _outcome(public) == _outcome(shared)


def test_rho_at_tiny_angles():
    # sin(phi) sin(r phi)^r underflows to 0 below phi of about 1e-162 at r=1;
    # rho is read as ratios of the sines, which stay near (r+1)/r there
    for r in range(1, 7):
        xs = float(x_star(r))
        for phi in (5e-324, 1e-320, 1e-200, 1e-100):
            assert rho_at(r, phi) == pytest.approx(xs, rel=1e-15)
            assert rho_at(r, np.array([phi]), np)[0] == pytest.approx(xs, rel=1e-15)
            assert math.isfinite(rho_deriv_at(r, phi)) and rho_deriv_at(r, phi) <= 0
    assert rho_at(1, 5e-324) == 4.0


def test_slope_spellings_match_mpmath_diff():
    # f' and rho' to a few ulps; rho' reads sin((r+1)phi), whose argument
    # loses about 1e-16 absolute near pi, so the top end is not asked.
    # g' cancels as phi -> 0 (an error near 1e-16 / (phi/top)^2).
    with mp.workdps(40):
        for r in range(1, 7):
            top = math.pi / (r + 1)
            nu = tuple((3 * j + 1) % 4 for j in range(r))
            for frac in (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                phi = frac * top
                at = mp.mpf(phi)
                f_ref = mp.diff(lambda t: f_at(r, t, mp), at)
                rho_ref = mp.diff(lambda t: rho_at(r, t, mp), at)
                assert abs(f_deriv_at(r, phi) - f_ref) <= 1e-15 * abs(f_ref)
                assert abs(rho_deriv_at(r, phi) - rho_ref) <= 1e-13 * abs(rho_ref)
                if frac < 0.01:
                    continue
                g_ref = mp.diff(lambda t: g_shift(r, nu, t, mp), at)
                sines = geometry._d_sines(r, phi, math)
                g_deriv = geometry._g_deriv(r, nu, *sines, math.sin((r + 2) * phi))
                assert abs(g_deriv - g_ref) <= 1e-11 * abs(g_ref)


def _counted(monkeypatch):
    """Patch solve_phi to count the evaluations of each increasing form it gets."""
    counts = []

    def counting(r, increasing, targets):
        counts.append(0)

        def counted(t):
            counts[-1] += 1
            return increasing(t)

        return solve_phi(r, counted, targets)

    monkeypatch.setattr(geometry, "solve_phi", counting)
    return counts


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rho_inv_takes_few_evaluations(monkeypatch, r):
    # a bisection to adjacent doubles took 53-54 evaluations
    counts = _counted(monkeypatch)
    for x in (1.0, 2.0, float(x_star(r)) / 2):
        rho_inv(r, x)
    assert len(counts) == 3 and max(counts) <= 10, counts


def _flips(r, increasing, target, phi):
    """increasing crosses target between phi and a neighbouring double.

    0.5 (lo + hi) of adjacent doubles rounds to lo or hi, and the ends of
    the starting bracket, which are never evaluated, count as below and
    above the target."""
    top = np.nextafter(math.pi / (r + 1), 0.0)

    def above(p):
        if p >= top or p <= 5e-324:
            return p >= top
        return bool(increasing(np.array([p]))[0][0] >= target)

    before, after = np.nextafter(phi, 0.0), np.nextafter(phi, math.inf)
    return (not above(before) and above(phi)) or (not above(phi) and above(after))


def _x_targets(r):
    xs = float(x_star(r))
    return st.one_of(
        st.floats(0.0, xs, exclude_min=True, exclude_max=True),
        st.floats(-1e-15, 0.0, exclude_max=True).map(lambda d: xs * (1 + d)),
        st.floats(-300, 0).map(lambda e: xs * 10.0**e),
        st.sampled_from([1e-300, 2.0, np.nextafter(xs, 0.0)]),
    ).filter(lambda x: 0.0 < x < xs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.tuples(st.just(r), _x_targets(r))))
@example((1, 2.0))  # the root pi/4 is the first point evaluated
@example((1, 1e-300))
def test_rho_inv_meets_the_bracket_contract(case):
    r, x = case
    phi = rho_inv(r, x).phi  # keeps its residual check
    assert 0.0 < phi < math.pi / (r + 1)
    assert abs(rho_at(r, phi) - x) <= 1e-14 * max(1.0, x)
    assert _flips(r, geometry._minus_rho_and_slope(r), -x, phi)


def _p_targets():
    return st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(-300, -1).map(lambda e: 10.0**e),
        st.floats(-16, -1).map(lambda e: 1.0 - 10.0**e),
        st.sampled_from([5e-324, 1e-300, np.nextafter(1.0, 0.0)]),
    ).filter(lambda p: 0.0 < p < 1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), _p_targets())
def test_f_inversion_meets_the_bracket_contract(r, p):
    target = math.pi * (1 - p)
    phi = float(solve_phi(r, geometry._f_and_slope(r), target))
    assert 0.0 < phi < math.pi / (r + 1)
    assert _flips(r, geometry._f_and_slope(r), target, phi)
