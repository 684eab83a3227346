import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fctk import asymptotics, geometry, poly
from fctk.asymptotics import (
    FIG1_COUNT,
    FIG1_PARAMS,
    FIG1_PHI_HI,
    FIG1_PHI_LO,
    _log_prefactor,
    cosine_approximant,
    fig1_dataset,
    normalized_poly,
    pr_approx,
    pr_prefactor_log,
)
from fctk.errors import DomainError, FctkError
from fctk.geometry import (
    PhiCoordinate,
    f_at,
    f_deriv_at,
    rho_at,
    saddle_modulus_at,
    solve_phi,
)
from fctk.poly import ModelParams, build_f, eval_exact, rescale_arg
from tests.test_poly import laguerre_recurrence


def _rho_fraction(r, phi, dps, digits):
    """rho(phi) at dps digits, as a rational with a denominator of at most 10^digits."""
    with mp.workdps(dps):
        _, man, exp, _ = rho_at(r, mp.mpf(phi), mp)._mpf_  # rho > 0
    return (Fraction(man) * Fraction(2) ** exp).limit_denominator(10**digits)


def exact_f_at_rho(params, phi, dps=60):
    """Oracle: exact rational evaluation of F_n(n^r x) near x = rho(phi)."""
    x = _rho_fraction(params.r, phi, dps, 40)
    return eval_exact(rescale_arg(build_f(params), params), x), x


def normalized_reference(params, phi, digits=200):
    """(-1)^n F_n(n^r x) / e^lm: the series summed exactly term by term at a
    rational x with a denominator of at most 10^digits next to rho(phi),
    and the log prefactor lm at 3 digits per digit of x."""
    r, nu, n = params.r, params.nu, params.n
    x = _rho_fraction(r, phi, 3 * digits, digits)
    p, q = x.numerator, x.denominator
    den = math.prod(math.factorial(n + v) for v in nu)
    total = sum(
        (-1) ** k * math.comb(n, k) * (n**r * p) ** k * q ** (n - k)
        * (den // math.prod(math.factorial(k + v) for v in nu))
        for k in range(n + 1)
    )
    with mp.workdps(3 * digits):
        lm = _log_prefactor(params, asymptotics._sines(r, mp.mpf(phi)))
        return (-1) ** n * mp.mpf(total) / (mp.mpf(den) * mp.mpf(q) ** n) / mp.e**lm


def test_cosine_in_range():
    for r, nu in ((1, (0,)), (2, (1, 2)), (3, (2, 4, 5))):
        params = ModelParams(r, nu, 150)
        for frac in (0.1, 0.3, 0.52, 0.8, 0.97):
            c = PhiCoordinate(r, frac * math.pi / (r + 1))
            assert abs(cosine_approximant(params, c)) <= 1.0 + 1e-12


def test_cosine_reduces_to_laguerre_phase():
    # r=1, nu=(0): the argument is the classical n(sin 2phi - 2phi) - phi + pi/4
    params = ModelParams(1, (0,), 23)
    for phi in (0.35, 0.8, 1.2):
        c = PhiCoordinate(1, phi)
        classical = math.cos(23 * (math.sin(2 * phi) - 2 * phi) - phi + math.pi / 4)
        assert cosine_approximant(params, c) == pytest.approx(classical, abs=1e-12)


def test_prefactor_log_finite_and_parity():
    params = ModelParams(3, (2, 4, 5), 150)
    c = PhiCoordinate(3, 0.5 * math.pi / 4)
    val = pr_prefactor_log(params, c)
    assert math.isfinite(val.log_magnitude)
    assert val.assembled is None


def test_quartic_bracket_positive_on_grid():
    for r in (1, 2, 3, 4):
        top = math.pi / (r + 1)
        for i in range(1, 400):
            sines = geometry._d_sines(r, i * top / 400, math)
            assert geometry._hess_quartic(r, *sines) > 0


def test_laguerre_prefactor_identity():
    # r=1, nu=(0), phi=pi/4: amplitude reduces to e^n / sqrt(pi n)
    n = 40
    params = ModelParams(1, (0,), n)
    val = pr_prefactor_log(params, PhiCoordinate(1, math.pi / 4))
    expected = n - 0.5 * math.log(math.pi * n)
    assert val.log_magnitude == pytest.approx(expected, rel=1e-12)


def test_pr_value_assembly_consistency():
    params = ModelParams(2, (1, 2), 60)
    c = PhiCoordinate(2, 0.4 * math.pi / 3)
    v = pr_approx(params, c)
    amplitude = (-1) ** params.n * mp.e ** mp.mpf(v.log_magnitude)
    recombined = amplitude * cosine_approximant(params, c)
    assert abs(recombined - v.assembled) <= 1e-10 * abs(v.assembled)


@pytest.mark.parametrize(
    "r, nu, n, frac",
    [
        (5, (5,) * 5, 5000, 1e-6),
        (5, (5,) * 5, 5000, 0.5),
        (5, (5,) * 5, 5000, 1 - 1e-12),
        (1, (0,), 5000, 0.5),
        (2, (0, 5), 60, 1e-300),
        (1, (0,), 1, 0.3),
    ],
)
def test_assembly_error_below_its_derived_bound(monkeypatch, r, nu, n, frac):
    # _working_prec keeps more than 128 bits below the largest term of the
    # log prefactor and the phase, so the assembly at that precision agrees
    # with one at four times it to far below 2^-120 of the amplitude
    params = ModelParams(r, nu, n)
    c = PhiCoordinate(r, frac * math.pi / (r + 1))
    rule = asymptotics._working_prec(params)
    got = pr_approx(params, c).assembled
    monkeypatch.setattr(asymptotics, "_working_prec", lambda p: 4 * rule)
    want = pr_approx(params, c)
    with mp.workprec(4 * rule):
        amplitude = mp.e ** mp.mpf(want.log_magnitude)
        assert abs(got - want.assembled) <= mp.mpf(2) ** -120 * amplitude


def test_pr_approx_against_exact():
    # normalized deviation |exact - approx| / prefactor at (1, (0,), 100, pi/4)
    params = ModelParams(1, (0,), 100)
    c = PhiCoordinate(1, math.pi / 4)
    approx = pr_approx(params, c)
    exact, _ = exact_f_at_rho(params, c.phi)
    with mp.workprec(600):
        dev = abs(
            mp.mpf(exact.numerator) / exact.denominator - approx.assembled
        ) / mp.e ** mp.mpf(approx.log_magnitude)
    assert dev < 0.05


def test_pr_approx_deviation_shrinks():
    c_phi = 0.45 * math.pi / 3
    devs = []
    for n in (50, 200):
        params = ModelParams(2, (0, 1), n)
        c = PhiCoordinate(2, c_phi)
        approx = pr_approx(params, c)
        exact, _ = exact_f_at_rho(params, c.phi)
        with mp.workprec(2000):
            devs.append(
                float(
                    abs(mp.mpf(exact.numerator) / exact.denominator - approx.assembled)
                    / mp.e ** mp.mpf(approx.log_magnitude)
                )
            )
    assert devs[1] < devs[0]


def test_pr_approx_sign_agreement():
    # away from the cosine zeros the approximation pins the sign
    params = ModelParams(1, (0,), 60)
    for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
        c = PhiCoordinate(1, frac * math.pi / 2)
        if abs(cosine_approximant(params, c)) <= 0.2:
            continue
        exact, _ = exact_f_at_rho(params, c.phi)
        assert (exact > 0) == (pr_approx(params, c).assembled > 0)


def test_normalized_poly_bounded_and_converging():
    params = FIG1_PARAMS
    lo, hi = FIG1_PHI_LO, FIG1_PHI_HI
    for i in range(10):
        phi = lo + (hi - lo) * i / 9
        c = PhiCoordinate(3, phi)
        ft = normalized_poly(params, c)
        assert abs(ft) <= 1.5
        assert abs(ft - cosine_approximant(params, c)) < 0.25


def test_normalized_poly_crosses_zero_with_polynomial():
    # the normalization keeps the zeros of F_n(n^r x)
    params = ModelParams(1, (0,), 30)
    vals = []
    for frac in [0.40 + 0.002 * i for i in range(40)]:
        c = PhiCoordinate(1, frac * math.pi / 2)
        vals.append((normalized_poly(params, c), exact_f_at_rho(params, c.phi)[0]))
    for (ft, ex), (ft2, ex2) in zip(vals, vals[1:]):
        if ex * ex2 < 0:
            break
    else:
        pytest.skip("no sign change on probe window")
    assert ft * ft2 < 0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_normalized_poly_edge_angles(r):
    # both ends of the angle interval: a typed error or the reference value
    params = ModelParams(r, (0,) * r, 40)
    top = math.pi / (r + 1)
    returned = []
    for phi in (1e-300, 1e-6, top * (1 - 1e-15)):
        try:
            got = normalized_poly(params, PhiCoordinate(r, phi))
        except FctkError:
            continue
        want = normalized_reference(params, phi)
        assert abs(got - want) <= 1e-9 * abs(want), (phi, got, want)
        returned.append(phi)
    assert 1e-6 in returned


def test_normalized_poly_matches_exact_series_on_fig1_grid():
    step = (FIG1_PHI_HI - FIG1_PHI_LO) / (FIG1_COUNT - 1)
    rows = [(FIG1_PARAMS, FIG1_PHI_LO + i * step) for i in range(0, FIG1_COUNT, 9)]
    rows.append((ModelParams(3, (2, 4, 5), 300), FIG1_PHI_LO + 100 * step))
    for params, phi in rows:
        want = normalized_reference(params, phi)
        assert abs(normalized_poly(params, PhiCoordinate(3, phi)) - want) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.tuples(*[st.integers(0, 5)] * r),
            st.integers(1, 80),
            st.floats(0.02, 0.98),
        )
    )
)
def test_normalized_poly_property(case):
    # the working precision 140 + bitlen(n) + bitlen(r + sum(nu)) against
    # the exact series at a 200-digit rational rho(phi)
    r, nu, n, frac = case
    params = ModelParams(r, nu, n)
    phi = frac * math.pi / (r + 1)
    want = normalized_reference(params, phi)
    got = normalized_poly(params, PhiCoordinate(r, phi))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_fig1_grid_needs_no_exact_evaluation(monkeypatch):
    # eval_bounded certifies every default row at its first precision: the
    # one exact Horner (behind eval_exact and eval_bounded's exact end)
    # never runs, and it is reached at a dyadic root
    calls = [0]
    inner = poly._horner

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(poly, "_horner", counted)
    fig1_dataset(FIG1_PARAMS, FIG1_PHI_LO, FIG1_PHI_HI, FIG1_COUNT)
    assert calls == [0]
    assert poly.eval_bounded(poly.ExactPolynomial((9, -38, 40)), 1, 1, 64, 53)[0] == 0
    assert calls == [1]


def test_fig1_rows_certify_on_the_first_pass(monkeypatch):
    # the start bits cover the cancellation, so no row doubles them:
    # the returned exponent is g = top - (start bits)
    passes = []
    inner = poly.eval_bounded

    def recorded(p, num, shift, bits, accuracy):
        out = inner(p, num, shift, bits, accuracy)
        passes.append(out[2] == p.term_top(abs(num).bit_length() - shift) - bits)
        return out

    monkeypatch.setattr(poly, "eval_bounded", recorded)
    fig1_dataset(FIG1_PARAMS, FIG1_PHI_LO, FIG1_PHI_HI, FIG1_COUNT)
    assert len(passes) == FIG1_COUNT
    assert all(passes)


def test_fig1_dataset_shape_and_defaults():
    rows = fig1_dataset(FIG1_PARAMS, FIG1_PHI_LO, FIG1_PHI_HI, 12)
    assert len(rows) == 12
    assert rows[0][0] == pytest.approx(FIG1_PHI_LO)
    assert rows[-1][0] == pytest.approx(FIG1_PHI_HI)
    assert FIG1_PARAMS == ModelParams(3, (2, 4, 5), 150)
    assert FIG1_COUNT == 200
    for phi, ft, cn in rows:
        assert abs(ft - cn) < 0.25
        assert abs(ft) <= 1.5


def test_fig1_window_validation():
    with pytest.raises(DomainError):
        fig1_dataset(FIG1_PARAMS, 0.6, 0.5, 5)
    with pytest.raises(DomainError):
        fig1_dataset(FIG1_PARAMS, 0.0, 0.5, 5)
    with pytest.raises(DomainError):
        fig1_dataset(FIG1_PARAMS, 0.1, 0.2, 0)


def _crossing_separation(n, step, span):
    """Distance between the nearest zero crossings of the normalized
    polynomial and the cosine approximant on a step-sized grid, centered
    on a crossing located by a coarse scan of the flagship window."""
    params = ModelParams(3, (2, 4, 5), n)
    coarse = [FIG1_PHI_LO + i * (FIG1_PHI_HI - FIG1_PHI_LO) / 199 for i in range(200)]
    cvals = [cosine_approximant(params, PhiCoordinate(3, p)) for p in coarse]
    k = next(i for i in range(199) if cvals[i] * cvals[i + 1] < 0)
    center = coarse[k]
    count = int(2 * span / step)
    phis = [center - span + step * i for i in range(count)]
    ft = [normalized_poly(params, PhiCoordinate(3, p)) for p in phis]
    cn = [cosine_approximant(params, PhiCoordinate(3, p)) for p in phis]

    def changes(vals):
        return [i for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0]

    s_ft, s_cn = changes(ft), changes(cn)
    assert s_ft and s_cn, "window was chosen to contain a crossing"
    return step * min(abs(i - j) for i in s_ft for j in s_cn)


def test_zero_proximity_on_fine_grid():
    # zeros of the normalized polynomial track zeros of the cosine
    # approximant; the offset equals the local deviation over the phase
    # slope (~1.3e-4 at n=150 on a 1e-5 grid) and shrinks with the degree
    sep_150 = _crossing_separation(150, 1e-5, 75e-5)
    assert sep_150 <= 3e-4
    sep_300 = _crossing_separation(300, 1e-5, 20e-5)
    assert sep_300 <= 1e-4
    assert sep_300 < sep_150


def test_fig1_deviation_shrinks_at_larger_degree():
    lo, hi = FIG1_PHI_LO, FIG1_PHI_HI
    dev = {}
    for n in (150, 300):
        params = ModelParams(3, (2, 4, 5), n)
        rows = fig1_dataset(params, lo, hi, 24)
        dev[n] = max(abs(ft - cn) for _, ft, cn in rows)
    assert dev[300] < dev[150]


def test_full_formula_matches_laguerre_remark():
    # exact L_n(4n cos^2 phi) * (-1)^n e^{-2n cos^2 phi} sqrt(pi n sin 2phi)
    # approaches cos(n(sin 2phi - 2phi) - phi + pi/4)
    n, phi = 150, math.pi / 3
    x = 4 * n * math.cos(phi) ** 2
    with mp.workprec(800):
        lhs = (
            laguerre_recurrence(n, x, prec=800)
            * (-1) ** n
            * mp.e ** (-2 * n * mp.cos(phi) ** 2)
            * mp.sqrt(mp.pi * n * mp.sin(2 * phi))
        )
        rhs = mp.cos(n * (mp.sin(2 * phi) - 2 * phi) - phi + mp.pi / 4)
        assert abs(lhs - rhs) < 0.1


def test_mismatched_r_raises():
    with pytest.raises(DomainError):
        cosine_approximant(ModelParams(2, (0, 0), 5), PhiCoordinate(1, 0.5))


def _spy(monkeypatch, module, weights):
    """Count calls of module's functions, each call adding its weight
    (the number of values it returns), in one running total."""
    total = [0]
    for name, weight in weights.items():
        inner = getattr(module, name)

        def counted(*args, _inner=inner, _weight=weight, **kwargs):
            total[0] += _weight
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return total


def test_assembly_evaluates_each_sine_once(monkeypatch):
    # a fig1 row, normalized_poly then cosine_approximant, costs at most
    # 5 + 6 trigonometric values: sin phi, cos phi, sin r phi, sin (r+1) phi
    # and cos (r+1) phi once each, and the cosine of the phase
    params = FIG1_PARAMS
    c = PhiCoordinate(3, FIG1_PHI_LO)
    normalized_poly(params, c)  # builds the cached rescaled polynomial
    trig = _spy(monkeypatch, mp, {"sin": 1, "cos": 1, "cos_sin": 2})
    # positive control: the spy counts the public forms over mpmath
    with mp.workprec(asymptotics._working_prec(params)):
        phi = mp.mpf(c.phi)
        for evaluate, values in (
            (lambda: rho_at(3, phi, mp), 3),
            (lambda: f_at(3, phi, mp), 3),
            (lambda: saddle_modulus_at(3, phi, mp), 2),
            (lambda: geometry._hess_quartic(3, *geometry._d_sines(3, phi, mp)), 4),
            (lambda: geometry._g_shift(3, params.nu, phi, *geometry._d_sines(3, phi, mp), mp), 4),
            (lambda: asymptotics._sines(3, phi), 5),
        ):
            trig[0] = 0
            evaluate()
            assert trig == [values]
    for form, most in ((normalized_poly, 5), (cosine_approximant, 6), (pr_approx, 6)):
        trig[0] = 0
        form(params, c)
        assert 0 < trig[0] <= most, form.__name__


def _hint_phase(monkeypatch, params):
    """The phase that zero_hints hands to solve_phi, and the sizes of the
    arrays solve_phi evaluates it on, one entry per evaluation."""
    phases, evaluations = [], []

    def recorded(r, increasing, targets):
        phases.append(increasing)

        def counted(t):
            evaluations.append(t.size)
            return increasing(t)

        return solve_phi(r, counted, targets)

    monkeypatch.setattr(geometry, "solve_phi", recorded)
    asymptotics.zero_hints(params)
    return phases[0], evaluations


def test_zero_hints_phase_evaluates_each_sine_once(monkeypatch):
    # one evaluation of the phase and its slope costs 5 trigonometric ufunc
    # calls (sin phi, sin r phi, sin (r+1) phi, cos (r+1) phi, and
    # sin (r+2) phi for g') and one arctan2, where f_at and the d-factor
    # sines of the g spelling cost 7 and one arctan2; a zero_hints call
    # costs that per evaluation and the 3 sines of rho at the angles found
    r, nu, n = 3, (2, 4, 5), 40
    params = ModelParams(r, nu, n)
    phase, evaluations = _hint_phase(monkeypatch, params)
    t = np.linspace(0.05, 0.7, 9)
    trig = _spy(monkeypatch, np, {"sin": 1, "cos": 1})
    atan2_names = [name for name in ("atan2", "arctan2") if hasattr(np, name)]
    angles = _spy(monkeypatch, np, dict.fromkeys(atan2_names, 1))
    want = n * f_at(r, t, np) - geometry._g_shift(r, nu, t, *geometry._d_sines(r, t, np), np)
    assert (trig, angles) == ([7], [1])  # positive control
    trig[0] = angles[0] = 0
    value, _ = phase(t)
    assert (trig, angles) == ([5], [1])
    assert value.tobytes() == want.tobytes()
    trig[0] = angles[0] = 0
    calls = len(evaluations)
    asymptotics.zero_hints(params)
    assert len(evaluations) == 2 * calls
    assert (trig, angles) == ([5 * calls + 3], [calls])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_zero_hints_take_few_phase_evaluations(monkeypatch, r):
    # a bisection to adjacent doubles took 54-56 evaluations of the phase
    nu = tuple((3 * j + 1) % 4 for j in range(r))
    _, evaluations = _hint_phase(monkeypatch, ModelParams(r, nu, 100))
    assert len(evaluations) <= 16
    # only targets whose bracket is still open are evaluated again
    assert evaluations[0] == 100 and evaluations[-1] < 100
    assert all(a >= b for a, b in zip(evaluations, evaluations[1:]))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_zero_hints_equal_solve_phi_over_public_forms(r):
    for n in (1, 2, 9, 33, 100):
        nu = tuple((n + 3 * j) % 4 for j in range(r))

        def phase(t):
            sines = geometry._d_sines(r, t, np)
            g = geometry._g_shift(r, nu, t, *sines, np)
            g_deriv = geometry._g_deriv(r, nu, *sines, np.sin((r + 2) * t))
            return n * f_at(r, t, np) - g, n * f_deriv_at(r, t, np) - g_deriv

        phi = solve_phi(r, phase, np.pi / 2 * np.arange(1, 2 * n, 2))
        want = rho_at(r, phi, np)[::-1]
        assert asymptotics.zero_hints(ModelParams(r, nu, n)).tobytes() == want.tobytes()
