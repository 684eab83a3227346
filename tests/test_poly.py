import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fctk.errors import DomainError
from fctk.poly import (
    ExactPolynomial,
    ModelParams,
    build_f,
    build_p,
    eval_bounded,
    eval_exact,
    poly_to_json,
    recurrence_coefficients,
    rescale_arg,
)


def laguerre_recurrence(n, x, prec=256):
    """Independent oracle: L_n^(0)(x) by the three-term recurrence."""
    with mp.workprec(prec):
        x = mp.mpf(x)
        prev, cur = mp.mpf(1), 1 - x
        if n == 0:
            return prev
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        return cur


def test_build_f_examples():
    assert build_f(ModelParams(1, (0,), 0)).coeffs == (Fraction(1),)
    assert build_f(ModelParams(1, (0,), 1)).coeffs == (Fraction(1), Fraction(-1))
    assert build_f(ModelParams(2, (0, 0), 2)).coeffs == (
        Fraction(1),
        Fraction(-2),
        Fraction(1, 4),
    )


def test_build_p_examples():
    assert build_p(ModelParams(1, (0,), 1)).coeffs == (Fraction(-1), Fraction(1))
    assert build_p(ModelParams(1, (0,), 2)).coeffs[-1] == 1


def test_monicity_sweep():
    # leading coefficient of the monic companion is exactly 1
    for r in (1, 2, 3, 4):
        for nu in ((0,) * r, (5,) + (0,) * (r - 1), tuple(range(r)), (5,) * r):
            for n in (0, 1, 5, 17, 30):
                p = build_p(ModelParams(r, nu, n))
                assert p.coeffs[-1] == 1
                assert p.degree == n


def test_constant_term_and_sign_pattern():
    for r, nu, n in ((1, (3,), 7), (2, (1, 2), 9), (3, (0, 2, 5), 6)):
        f = build_f(ModelParams(r, nu, n))
        assert f.coeffs[0] == Fraction(1, math.prod(math.factorial(v) for v in nu))
        for k, c in enumerate(f.coeffs):
            assert (c > 0) == (k % 2 == 0)


def test_rescale_examples():
    # pure coefficient transform: multiply coeff k by n^(r k)
    given = ExactPolynomial((Fraction(1), Fraction(-2), Fraction(1, 4)))
    assert rescale_arg(given, ModelParams(1, (0,), 2)).coeffs == (
        Fraction(1),
        Fraction(-4),
        Fraction(1),
    )
    p1 = ModelParams(3, (1, 1, 1), 1)
    f1 = build_f(p1)
    assert rescale_arg(f1, p1).coeffs == f1.coeffs  # n = 1 leaves it unchanged
    p22 = ModelParams(2, (0, 0), 2)
    assert rescale_arg(build_f(p22), p22).coeffs[2] == Fraction(1, 4) * 2**4


def fraction_horner(poly, x):
    """Reference: Horner over the rationals, reducing at every step."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def test_eval_exact_examples():
    assert eval_exact(build_f(ModelParams(1, (0,), 1)), 1) == 0
    assert eval_exact(build_f(ModelParams(1, (0,), 2)), 2) == -1
    f = build_f(ModelParams(2, (1, 3), 4))
    assert eval_exact(f, 0) == Fraction(1, math.factorial(1) * math.factorial(3))
    # Horner over rationals is exact: compare against direct summation
    x = Fraction(7, 3)
    direct = sum(c * x**k for k, c in enumerate(f.coeffs))
    assert eval_exact(f, x) == direct
    assert eval_exact(ExactPolynomial((Fraction(-5, 3),)), x) == Fraction(-5, 3)


def test_eval_exact_matches_fraction_horner():
    # the integer kernel returns the identical reduced Fraction, also at
    # long rational points like the fig1 grid's
    params = ModelParams(3, (2, 4, 5), 40)
    f = rescale_arg(build_f(params), params)
    for x in (Fraction(1, 3), Fraction(17, 7), Fraction(2**200 + 1, 3**120), Fraction(-9, 4)):
        got = eval_exact(f, x)
        want = fraction_horner(f, x)
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_integer_form():
    f = build_f(ModelParams(2, (1, 2), 5))
    ints, lcm = f.integer_form
    assert all(isinstance(c, int) for c in ints)
    assert tuple(Fraction(c, lcm) for c in ints) == f.coeffs
    assert lcm == math.lcm(*(c.denominator for c in f.coeffs))
    assert f.integer_form is f.integer_form  # stored, never recomputed
    # the integer form is the one stored form; coeffs is derived on first use
    g = ExactPolynomial([Fraction(1, 6), 0, Fraction(-3, 4)])
    assert set(vars(g)) == {"integer_form"}
    assert g.integer_form == ((2, 0, -9), 12)
    assert g.coeffs == (Fraction(1, 6), 0, Fraction(-3, 4))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 5), min_size=r, max_size=r))
    ),
    st.integers(0, 80),
)
def test_integer_forms_match_the_fraction_construction(rnu, n):
    # build_f, build_p and rescale_arg make their integer forms without a
    # Fraction per coefficient; the reference builds every coefficient as
    # a reduced Fraction and takes the lcm of the denominators
    r, nu = rnu
    params = ModelParams(r, tuple(nu), n)
    f = [
        Fraction((-1) ** k * math.comb(n, k), math.prod(math.factorial(k + v) for v in nu))
        for k in range(n + 1)
    ]
    scale = (-1) ** n * math.prod(math.factorial(n + v) for v in nu)
    base = n**r if n else 1
    for got, coeffs in (
        (build_f(params), f),
        (build_p(params), [c * scale for c in f]),
        (rescale_arg(build_f(params), params), [c * base**k for k, c in enumerate(f)]),
    ):
        want = ExactPolynomial(coeffs)
        assert got.integer_form == want.integer_form
        assert got.coeffs == want.coeffs
        assert got == want and hash(got) == hash(want)
        assert got.degree == n


def _assert_recurrence_reproduces_build_p(r, nu, top):
    # run x P_k = P_(k+1) + sum_j b_(k,j) P_(k-j) on integer coefficient
    # lists and compare every P_k, k <= top, with build_p
    b = recurrence_coefficients(ModelParams(r, nu, top))
    assert len(b) == top and all(len(row) == r + 1 for row in b)
    polys = [[1]]
    for k in range(top):
        nxt = [0] + polys[k]
        for j, c in enumerate(b[k]):
            if j > k:
                assert c == 0
                continue
            for i, a in enumerate(polys[k - j]):
                nxt[i] -= c * a
        polys.append(nxt)
    for k, got in enumerate(polys):
        assert tuple(got) == build_p(ModelParams(r, nu, k)).integer_form[0], (r, nu, k)


@pytest.mark.parametrize("r, nu", [(1, (0,)), (2, (0, 0)), (3, (1, 2, 3)), (3, (2, 4, 5))])
def test_recurrence_reproduces_build_p(r, nu):
    _assert_recurrence_reproduces_build_p(r, nu, 60)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.tuples(*[st.integers(0, 6)] * r))
    ),
    st.integers(0, 30),
)
def test_recurrence_reproduces_build_p_property(rnu, top):
    _assert_recurrence_reproduces_build_p(*rnu, top)


def test_recurrence_closed_forms():
    for nu in range(5):
        b = recurrence_coefficients(ModelParams(1, (nu,), 40))
        assert b == [(2 * k + nu + 1, k * (k + nu)) for k in range(40)]
    b = recurrence_coefficients(ModelParams(2, (0, 0), 40))
    assert b == [(3 * k * k + 3 * k + 1, 3 * k**4, k**3 * (k - 1) ** 3) for k in range(40)]
    assert recurrence_coefficients(ModelParams(3, (1, 2, 3), 0)) == []


def test_polynomials_are_immutable():
    f = build_f(ModelParams(1, (0,), 3))
    with pytest.raises(AttributeError):
        f.coeffs = ()
    assert f != ExactPolynomial(f.coeffs[:-1])
    assert repr(ExactPolynomial((1, -2))) == (
        "ExactPolynomial(coeffs=(Fraction(1, 1), Fraction(-2, 1)))"
    )


def test_laguerre_specialization():
    # P_n = (-1)^n n! L_n^(0) for r=1, nu=(0)
    for n in (1, 5, 20, 50):
        params = ModelParams(1, (0,), n)
        p = build_p(params)
        for x in (0.5, 1, 2, 3):
            value = eval_exact(p, Fraction(x))
            with mp.workprec(300):
                mine = mp.mpf(value.numerator) / value.denominator
                ref = (-1) ** n * math.factorial(n) * laguerre_recurrence(n, x)
                assert abs(mine - ref) <= 1e-20 * abs(ref)  # x = 1 is the zero of L_1


def test_json_round_trip():
    params = ModelParams(2, (0, 3), 4)
    f = build_f(params)
    data = json.loads(poly_to_json(params, f))
    assert ModelParams(data["r"], tuple(data["nu"]), data["n"]) == params
    assert tuple(Fraction(c) for c in data["coeffs"]) == f.coeffs


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, (), 1)
    with pytest.raises(ValueError):
        ModelParams(2, (0,), 1)
    with pytest.raises(ValueError):
        ModelParams(1, (-1,), 1)
    with pytest.raises(ValueError):
        ModelParams(1, (0,), -1)
    with pytest.raises(ValueError):
        ExactPolynomial(())


def test_edge_inputs_raise_domain_error():
    # every argument check raises the package's typed error, which is
    # also a ValueError
    from fctk.contour import QuadratureGrid, verify_h_max
    from fctk.errors import FctkError
    from fctk.fuss_catalan import FussCatalanDist, identity_check
    from fctk.geometry import PhiCoordinate
    from fctk.rmt import aggregate_measure, mean_moment, sample_spectrum
    from fctk.rng import generator
    from fctk.zeros import EmpiricalMeasure, isolate_zeros

    p = build_f(ModelParams(1, (0,), 3))
    calls = (
        lambda: ModelParams(0, (), 1),
        lambda: ModelParams(2, (0,), 1),
        lambda: ModelParams(1, (-1,), 1),
        lambda: ModelParams(1, (0,), -1),
        lambda: ExactPolynomial(()),
        lambda: ExactPolynomial((1, 0)),
        lambda: isolate_zeros(p, 0),
        lambda: isolate_zeros(p, Fraction(-1, 2)),
        lambda: isolate_zeros(p, math.nan),
        lambda: isolate_zeros(p, math.inf),
        lambda: eval_exact(p, math.nan),
        lambda: eval_exact(p, math.inf),
        lambda: ModelParams(1, (1.7,), 2),
        lambda: QuadratureGrid(2, 64.5),
        lambda: verify_h_max(PhiCoordinate(2, 0.4), 64.5),
        lambda: FussCatalanDist(2).density_x(math.nan),
        lambda: sample_spectrum(ModelParams(1, (0,), 0), seed=1),
        lambda: aggregate_measure(ModelParams(1, (0,), 5), trials=0, seed=1),
        lambda: mean_moment(EmpiricalMeasure((1.0,)), -1),
        lambda: mean_moment(EmpiricalMeasure(()), 1),
        lambda: sample_spectrum(ModelParams(1, (0,), 1), seed=1, trial=-1),
        # seeds and streams are integers in [0, 2^64), so no two seeds alias
        lambda: generator(-1),
        lambda: generator(2**64),
        lambda: generator(0, -1),
        lambda: generator(0, 2**64),
        lambda: FussCatalanDist(2).sample(5, -1),
        lambda: FussCatalanDist(2).sample(0, -1),
        lambda: FussCatalanDist(2).sample(5, 3 + 2**64),
        lambda: FussCatalanDist(2).sample(5, 1.5),
        lambda: sample_spectrum(ModelParams(1, (0,), 1), 1.5),
        lambda: sample_spectrum(ModelParams(1, (0,), 1), 1, trial=0.5),
        lambda: aggregate_measure(ModelParams(1, (0,), 1), 2, 2.5),
        # non-finite moment orders
        lambda: mean_moment(EmpiricalMeasure((1.0,)), math.nan),
        lambda: mean_moment(EmpiricalMeasure((1.0,)), math.inf),
        lambda: FussCatalanDist(2).moment_quadrature(math.nan),
        lambda: FussCatalanDist(2).moment_quadrature(math.inf),
        # counts given as floats
        lambda: FussCatalanDist(2).stieltjes_moments(3.5),
        lambda: FussCatalanDist(2).moment_exact(2.5),
        lambda: FussCatalanDist(2).sample(2.5, 1),
        lambda: aggregate_measure(ModelParams(1, (0,), 5), 2.5, 1),
        lambda: identity_check(1, 1.5),
    )
    for call in calls:
        with pytest.raises(FctkError) as exc:
            call()
        assert isinstance(exc.value, DomainError) and isinstance(exc.value, ValueError)


def _inside_bound(p, num, shift, got, accuracy):
    v, err, g = got
    exact = eval_exact(p, Fraction(num) / Fraction(2) ** shift) * p.integer_form[1]
    approx, bound = Fraction(v) * Fraction(2) ** g, Fraction(err) * Fraction(2) ** g
    assert abs(exact - approx) <= bound
    assert bound * 2**accuracy <= abs(exact)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 5), min_size=r, max_size=r))
    ),
    st.integers(1, 60),
    st.booleans(),
    st.integers(-(2**80), 2**80).filter(bool),
    st.sampled_from([-400, -150, -60, -20, -3, 0, 4, 40]),
    st.integers(8, 160),
    st.integers(1, 64),
)
def test_eval_bounded_holds_its_bound(rnu, n, rescaled, man, e, bits, accuracy):
    # positive, negative, integer, tiny and huge dyadic points, the bound
    # checked against the exact value; small `bits` forces escalation
    r, nu = rnu
    params = ModelParams(r, tuple(nu), n)
    p = build_f(params)
    if rescaled:
        p = rescale_arg(p, params)
    _inside_bound(p, man, -e, eval_bounded(p, man, -e, bits, accuracy), accuracy)


def test_eval_bounded_point_types_and_edges():
    p = rescale_arg(build_f(ModelParams(3, (2, 4, 5), 40)), ModelParams(3, (2, 4, 5), 40))
    # -2.75, 3, -5/1024 (and unreduced as -20/4096), 2^70 at a negative
    # shift, 2^-300
    for num, shift in ((-11, 2), (3, 0), (-5, 10), (-20, 12), (1, -70), (1, 300)):
        _inside_bound(p, num, shift, eval_bounded(p, num, shift, 64, 53), 53)
    # constant polynomials and x = 0 are exact
    ints, _ = p.integer_form
    assert eval_bounded(p, 0, 0, 64, 53) == (ints[0], 0, 0)
    assert eval_bounded(p, 0, 17, 64, 53) == (ints[0], 0, 0)
    assert eval_bounded(ExactPolynomial((Fraction(-5, 3),)), 7, 0, 64, 53) == (-5, 0, 0)
    # bits that doubling cannot grow
    for bits in (0, -413):
        with pytest.raises(DomainError):
            eval_bounded(p, 37, 7, bits, 53)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 4), min_size=r, max_size=r))
    ),
    st.integers(2, 60),
    st.lists(
        st.tuples(
            st.integers(1, 2**70),
            st.integers(-90, 4),
            st.sampled_from([1, 8, 40, 200, 900]),
            st.sampled_from([0, 1, 53]),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_eval_bounded_memo_is_pure(rnu, n, calls):
    # the floored coefficients memoized on one polynomial, across binades
    # and after escalations (small bits), give every call the triple a
    # fresh copy gives; the memo holds at most one table per binade
    r, nu = rnu
    params = ModelParams(r, tuple(nu), n)
    p = rescale_arg(build_f(params), params)
    binades = set()
    for man, e, bits, accuracy in calls:
        fresh = ExactPolynomial(p.coeffs)
        got = eval_bounded(p, man, -e, bits, accuracy)
        assert got == eval_bounded(fresh, man, -e, bits, accuracy)
        binades.add(man.bit_length() + e)
        assert set(p._tables) <= binades


def test_eval_bounded_reads_an_exact_dyadic_root_as_zero():
    # (2x - 1)(20x - 9) at its dyadic root 1/2: no fixed-point attempt can
    # certify a sign, so the search ends at the exact Horner
    p = ExactPolynomial((9, -38, 40))
    for num, shift in ((1, 1), (2, 2), (4, 3)):
        v, err, _ = eval_bounded(p, num, shift, 8, 64)
        assert v == 0 and err == 0
    # 461/1024 is 2e-4 from the root 9/20: the terms cancel 14 bits
    _inside_bound(p, 461, 10, eval_bounded(p, 461, 10, 8, 30), 30)
