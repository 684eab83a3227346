import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fctk import poly, zeros
from fctk.asymptotics import zero_hints
from fctk.errors import DomainError, IsolationFailure, NotSquareFree
from fctk.fuss_catalan import FussCatalanDist
from fctk.poly import ExactPolynomial, ModelParams, build_f, eval_exact, rescale_arg
from fctk.zeros import (
    EmpiricalMeasure,
    isolate_zeros,
    ks_distance,
    rescaled_zero_measure,
)


def check_enclosures(poly, enclosures, tol):
    """Degree many sorted enclosures, each proving a root of its own.

    lo == hi must be an exact root, and lo < hi needs nonzero values of
    opposite signs at its ends, so its root is interior.  Neighbours are
    then strictly ordered, except that two sign-change brackets may share
    an end: their roots are interior, so distinct.
    """
    assert len(enclosures) == poly.degree
    prev = None
    for e in enclosures:
        assert e.lo > 0
        assert e.width <= tol
        vlo, vhi = eval_exact(poly, e.lo), eval_exact(poly, e.hi)
        if e.lo == e.hi:
            assert vlo == 0
        else:
            assert vlo * vhi < 0
        if prev is not None:
            assert e.lo > prev.hi or (e.lo == prev.hi and prev.lo < prev.hi and e.lo < e.hi)
        prev = e


def _rescaled(params):
    return rescale_arg(build_f(params), params)


def test_isolate_f2_roots():
    # roots of 1 - 2x + x^2/2 are 2 +- sqrt(2)
    f2 = build_f(ModelParams(1, (0,), 2))
    tol = Fraction(1, 10**12)
    enc = isolate_zeros(f2, tol)
    check_enclosures(f2, enc, tol)
    assert float(enc[0].mid) == pytest.approx(2 - math.sqrt(2), abs=1e-11)
    assert float(enc[1].mid) == pytest.approx(2 + math.sqrt(2), abs=1e-11)


def test_isolate_exact_integer_root():
    # F_1 for r=2, nu=(0,0) is 1 - x: single zero exactly at 1
    f1 = build_f(ModelParams(2, (0, 0), 1))
    enc = isolate_zeros(f1)
    assert len(enc) == 1
    assert enc[0].lo == enc[0].hi == 1


def test_isolate_dyadic_root():
    # (2x - 1)(x - 3) has the dyadic root 1/2 hit by a bisection point
    p = ExactPolynomial((Fraction(3), Fraction(-7), Fraction(2)))
    enc = isolate_zeros(p)
    assert enc[0].lo == enc[0].hi == Fraction(1, 2)
    assert enc[1].lo <= 3 <= enc[1].hi


def test_bracket_ending_on_a_dyadic_root():
    # Descartes gives (0, 1/2) and the exact root 1/2; the root of the
    # first bracket, 9/20 or 11/20, must not be reported as its end 1/2
    for p, other in (
        (ExactPolynomial((9, -38, 40)), Fraction(9, 20)),  # (2x - 1)(20x - 9)
        (ExactPolynomial((11, -42, 40)), Fraction(11, 20)),  # (2x - 1)(20x - 11)
    ):
        for tol in (Fraction(1, 10**12), Fraction(1)):
            enc = isolate_zeros(p, tol)
            check_enclosures(p, enc, tol)
            assert Fraction(1, 2) in [e.lo for e in enc if e.lo == e.hi]
            assert any(e.lo < other < e.hi for e in enc)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(
        st.builds(lambda s, q: Fraction(q, 2**s), st.integers(0, 3), st.integers(1, 16)),
        min_size=2,
        max_size=5,
    ),
    st.sampled_from([3, 5, 7, 9, 11, 13]),
    st.integers(1, 60),
)
def test_descartes_brackets_around_dyadic_roots(dyadic, m, t):
    # prod (2^s x - q) (m x - t): dyadic roots on Descartes bisection
    # points, which come out as exact roots, and brackets that start or end
    # at them, beside one root t/m that is not dyadic
    if t % m == 0:
        t += 1
    coeffs = [-t, m]
    for root in dyadic:
        q, den = root.numerator, root.denominator
        coeffs = [
            (coeffs[k - 1] * den if k else 0) - (coeffs[k] * q if k < len(coeffs) else 0)
            for k in range(len(coeffs) + 1)
        ]
    f = ExactPolynomial(coeffs)
    for tol in (Fraction(1, 10**12), Fraction(1)):
        check_enclosures(f, isolate_zeros(f, tol), tol)


def test_root_count_small_sweep():
    # wider sweep runs in the acceptance suite
    tol = Fraction(1, 10**9)
    for r, nu in ((1, (2,)), (2, (0, 3)), (3, (1, 0, 2))):
        for n in (1, 4, 9, 14):
            f = build_f(ModelParams(r, nu, n))
            check_enclosures(f, isolate_zeros(f, tol), tol)


def test_not_square_free():
    # (x - 1)^2
    with pytest.raises(NotSquareFree):
        isolate_zeros(ExactPolynomial((Fraction(1), Fraction(-2), Fraction(1))))


def test_isolation_failure_on_complex_or_negative_roots():
    with pytest.raises(IsolationFailure):
        isolate_zeros(ExactPolynomial((Fraction(1), Fraction(0), Fraction(1))))  # x^2+1
    with pytest.raises(IsolationFailure):
        isolate_zeros(ExactPolynomial((Fraction(1), Fraction(1))))  # root -1
    with pytest.raises(IsolationFailure):
        isolate_zeros(ExactPolynomial((Fraction(0), Fraction(1))))  # root 0


def test_refinement_contract():
    # the bracket sequence does not depend on tol, so halving tol only nests
    # (every tol here is below the smallest root, about 3e-4)
    # (the estimates only pick where each refinement starts, not the tol)
    cases = ((ModelParams(1, (1,), 6), False), (ModelParams(2, (1, 2), 30), True))
    for params, seeded in cases:
        f = _rescaled(params)
        hints = zero_hints(params) if seeded else None
        for k in (12, 20, 40):
            tol = Fraction(1, 2**k)
            wide = isolate_zeros(f, tol, hints=hints)
            narrow = isolate_zeros(f, tol / 2, hints=hints)
            check_enclosures(f, wide, tol)
            check_enclosures(f, narrow, tol / 2)
            for a, b in zip(wide, narrow):
                assert a.lo <= b.lo <= b.hi <= a.hi


def _count_fallbacks(monkeypatch):
    calls = []
    descartes = zeros._descartes_brackets

    def counted(*args):
        calls.append(args)
        return descartes(*args)

    monkeypatch.setattr(zeros, "_descartes_brackets", counted)
    return calls


def test_separators_interleave_the_zeros():
    for params in (ModelParams(1, (0,), 30), ModelParams(3, (1, 2, 3), 40)):
        hints = zero_hints(params)
        assert len(hints) == 2 * params.n - 1
        assert all(0 < a < b for a, b in zip(hints, hints[1:]))
        roots = isolate_zeros(_rescaled(params), Fraction(1, 2**30))
        # the separators, at the odd positions, split the roots one per gap
        for left, sep, right in zip(roots, hints[1::2], roots[1:]):
            assert left.hi < sep < right.lo
    assert len(zero_hints(ModelParams(2, (0, 0), 1))) == 1
    assert len(zero_hints(ModelParams(2, (0, 0), 0))) == 0


def test_seeded_path_certifies_without_descartes(monkeypatch):
    # n sign changes at the separators prove every root: no Descartes call
    def boom(*args):
        raise AssertionError("Descartes isolation ran")

    monkeypatch.setattr(zeros, "_isolate01", boom)
    coarse = Fraction(2**64)  # wider than every bracket: certification only
    for r in (1, 2, 3):
        for nu in itertools.product(range(4), repeat=r):
            for n in itertools.chain(range(4, 26), (50, 100, 200)):
                params = ModelParams(r, nu, n)
                enc = isolate_zeros(_rescaled(params), coarse, hints=zero_hints(params))
                assert len(enc) == n, params


def test_seeded_enclosures_are_proven():
    tol = Fraction(1, 10**12)
    for params in (ModelParams(1, (0,), 40), ModelParams(3, (3, 0, 2), 25)):
        f = _rescaled(params)
        check_enclosures(f, isolate_zeros(f, tol, hints=zero_hints(params)), tol)


def test_root_below_tol_gets_a_positive_enclosure():
    params = ModelParams(4, (0, 0, 0, 0), 19)  # smallest root about 4e-7
    f = _rescaled(params)
    tol = Fraction(1, 2**10)
    for hints in (None, zero_hints(params)):
        enc = isolate_zeros(f, tol, hints=hints)
        check_enclosures(f, enc, tol)
        assert enc[0].hi < Fraction(1, 10**6)


def test_fallback_when_separators_do_not_certify(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    tol = Fraction(1, 2**30)
    # large offsets against n: the asymptotic extrema miss some gaps
    for n in range(4, 8):
        params = ModelParams(3, (5, 5, 5), n)
        f = _rescaled(params)
        before = len(calls)
        check_enclosures(f, isolate_zeros(f, tol, hints=zero_hints(params)), tol)
        assert len(calls) == before + 1, n


def test_fallback_when_a_separator_is_a_root(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    f2 = ExactPolynomial((2, -3, 1))  # (1 - x)(2 - x)
    enc = isolate_zeros(f2, hints=[0.5, 1.0, 3.0])
    assert len(calls) == 1
    assert [(e.lo, e.hi) for e in enc] == [(1, 1), (2, 2)]


def test_fallback_when_separators_are_not_usable(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    # the fallback still takes the estimates, so its enclosures are proven
    # and overlap the hint-free ones, not equal to them
    params = ModelParams(2, (1, 0), 12)
    f = _rescaled(params)
    hints = zero_hints(params)
    seps = list(hints[1::2])
    tol = Fraction(1, 2**30)
    want = isolate_zeros(f, tol)
    assert len(calls) == 1
    unsorted = seps[:]
    unsorted[3], unsorted[4] = unsorted[4], unsorted[3]
    repeated = seps[:-1] + [seps[-2]]
    not_finite = (seps[:5] + [math.nan] + seps[6:], seps[:-1] + [math.inf])
    for bad in (unsorted, repeated, *not_finite):
        mixed = hints.copy()
        mixed[1::2] = bad
        got = isolate_zeros(f, tol, hints=mixed)
        check_enclosures(f, got, tol)
        for a, b in zip(want, got):
            assert a.lo <= b.hi and b.lo <= a.hi
    assert len(calls) == 5
    got = isolate_zeros(f, tol, hints=hints)
    assert len(calls) == 5
    check_enclosures(f, got, tol)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(
            st.just(r), st.tuples(*[st.integers(0, 5)] * r), st.integers(1, 60)
        )
    )
)
def test_seeded_and_descartes_agree(case):
    r, nu, n = case
    params = ModelParams(r, nu, n)
    f = _rescaled(params)
    tol = Fraction(1, 2**40)  # below the smallest root, about 1.3e-9 at r=4, n=60
    plain = isolate_zeros(f, tol)
    hinted = isolate_zeros(f, tol, hints=zero_hints(params))
    assert len(plain) == len(hinted) == n
    check_enclosures(f, hinted, tol)
    for a, b in zip(plain, hinted):
        assert a.lo <= b.hi and b.lo <= a.hi


def test_estimates_are_only_hints():
    # a bad estimate costs evaluations, never a wrong or missing enclosure
    params = ModelParams(3, (1, 2, 3), 30)
    f = _rescaled(params)
    hints = zero_hints(params)
    seps, est = hints[1::2], hints[0::2]
    n = params.n
    tol = Fraction(1, 2**30)
    bad = (
        [math.nan] * n,
        [math.inf, -math.inf] * (n // 2),
        est[::-1],
        [est[n // 2]] * n,
        [-1.0] * n,
        est + 1e6,
        est * (1 + 1e-3),
    )
    for estimates in bad:
        # with the separators (seeded) and with unusable ones (Descartes)
        for s in (seps, np.full(n - 1, math.nan)):
            mixed = np.empty(2 * n - 1)
            mixed[0::2], mixed[1::2] = estimates, s
            check_enclosures(f, isolate_zeros(f, tol, hints=mixed), tol)
    for wrong in (hints[1:], list(hints) + [1.0], [], hints[:, None]):
        with pytest.raises(DomainError):
            isolate_zeros(f, tol, hints=wrong)
    # a constant takes the empty array, and no other
    assert isolate_zeros(ExactPolynomial((3,)), tol, hints=[]) == []
    with pytest.raises(DomainError):
        isolate_zeros(ExactPolynomial((3,)), tol, hints=[1.0])


def _exact_sign(f, num, shift):
    v = eval_exact(f, Fraction(num) / Fraction(2) ** shift)
    return (v > 0) - (v < 0)


def _certified_sign(f, widths, num, shift):
    v, _ = zeros._value(f, widths, num, shift)
    return (v > 0) - (v < 0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(st.just(r), st.tuples(*[st.integers(0, 4)] * r), st.integers(2, 60))
    ),
    st.lists(st.tuples(st.integers(0, 2**64), st.integers(0, 80)), max_size=30),
)
def test_certified_signs_are_exact_signs(case, points):
    # at random dyadic points, and one ulp inside and outside every
    # enclosure end, where the value nearly cancels and widths escalate;
    # one width table serves the whole sequence, as in isolate_zeros
    params = ModelParams(*case)
    f = _rescaled(params)
    widths = {}
    for num, shift in points:
        assert _certified_sign(f, widths, num, shift) == _exact_sign(f, num, shift)
    tol = Fraction(1, 2**44)
    for e in isolate_zeros(f, tol, hints=zero_hints(params)):
        for end in (e.lo, e.hi):
            num, den = end.as_integer_ratio()
            shift = den.bit_length() - 1
            for q, s in ((num, shift), (2 * num - 1, shift + 1), (2 * num + 1, shift + 1)):
                assert _certified_sign(f, widths, q, s) == _exact_sign(f, q, s)
    # one width per binade, at least the first one
    assert all(type(w) is int and w >= zeros._first_width(f.degree) for w in widths.values())


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 2**40), st.integers(0, 40)), min_size=1, max_size=6),
    st.integers(1, 9),
)
def test_certified_signs_at_exact_dyadic_roots(roots, other):
    # (3x - other) prod (2^s x - q): a dyadic root q / 2^s reads exactly 0,
    # and one ulp either side reads the exact sign; long roots make the
    # exact value's granularity finer than the first width, so the
    # fixed-point passes run and fail before the exact Horner ends them
    coeffs = [-other, 3]
    for q, s in roots:
        coeffs = [
            (coeffs[k - 1] << s if k else 0) - (coeffs[k] * q if k < len(coeffs) else 0)
            for k in range(len(coeffs) + 1)
        ]
    f = ExactPolynomial(coeffs)
    widths = {}
    for q, s in roots:
        assert zeros._value(f, widths, q, s)[0] == 0
        for num, shift in ((2 * q - 1, s + 1), (2 * q + 1, s + 1)):
            assert _certified_sign(f, widths, num, shift) == _exact_sign(f, num, shift)
    assert zeros._value(ExactPolynomial((9, -38, 40)), {}, 1, 1)[0] == 0


def _count_evaluations(monkeypatch, module=zeros, name="_value"):
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_estimates_cut_evaluations_per_root(monkeypatch):
    # the six `fctk zeros --ks` jobs of the benchmark: 13.2-16.1 signs per
    # root from the secant start, 9.3-11.8 from the estimates; every one is
    # certified by the bounded Horner, none needs the exact one
    calls = _count_evaluations(monkeypatch)
    exact = _count_evaluations(monkeypatch, poly, "_horner")
    n, tol = 100, Fraction(1, 10**12)
    for r in (1, 2, 3):
        for nu in ((0,) * r, tuple(range(1, r + 1))):
            params = ModelParams(r, nu, n)
            f = _rescaled(params)
            calls[0] = exact[0] = 0
            enclosures = isolate_zeros(f, tol, hints=zero_hints(params))
            assert calls[0] <= 12 * n, (params, calls[0] / n)
            assert exact[0] == 0, params
            check_enclosures(f, enclosures, tol)
    # the counter sees the exact Horner that ends a sign at a dyadic root
    exact[0] = 0
    assert zeros._value(ExactPolynomial((9, -38, 40)), {}, 1, 1)[0] == 0
    assert exact[0] == 1


def test_capped_refinement_evaluation_count(monkeypatch):
    # the 66 small Descartes isolations of the benchmark (nu the base-4
    # digits of n): 15 083 evaluations with m doubled blindly, 14 235 capped,
    # 13 413 once each shared bracket end is signed once (1 914 ends on
    # 1 092 points)
    calls = _count_evaluations(monkeypatch)
    for r in (1, 2, 3):
        for n in range(4, 26):
            nu = tuple((n >> (2 * j)) & 3 for j in range(r))
            isolate_zeros(_rescaled(ModelParams(r, nu, n)), Fraction(1, 10**12))
    assert calls[0] <= 13_413


def test_descartes_ends_are_signed_once(monkeypatch):
    # the benchmark's warm-up polynomial: 13 Descartes brackets whose 26
    # ends fall on 15 points, each signed once, before any refinement;
    # the refinement probes only interior points
    f = _rescaled(ModelParams(2, (1, 1), 13))
    signed = []
    value = zeros._value

    def spy(p, widths, num, shift):
        if p is f:
            signed.append(Fraction(num, 1 << shift))
        return value(p, widths, num, shift)

    brackets = []
    descartes = zeros._descartes_brackets

    def recorded(*args):
        out = descartes(*args)
        brackets.extend(b[0] if isinstance(b[0], tuple) else b for b in out)
        return out

    monkeypatch.setattr(zeros, "_value", spy)
    monkeypatch.setattr(zeros, "_descartes_brackets", recorded)
    tol = Fraction(1, 10**12)
    check_enclosures(f, isolate_zeros(f, tol), tol)
    ends = [Fraction(x, 1 << s) for lo, hi, s in brackets if lo < hi for x in (lo, hi)]
    assert (len(ends), len(set(ends))) == (26, 15)
    assert all(signed.count(x) == 1 for x in ends)


def test_determinism():
    f = build_f(ModelParams(2, (1, 2), 12))
    assert isolate_zeros(f) == isolate_zeros(f)


def test_rescaled_zero_measure():
    m = rescaled_zero_measure(ModelParams(1, (0,), 2))
    assert m.n == 2
    assert m.points[0] == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-11)
    assert m.points[1] == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-11)


def test_rescaled_zeros_stay_near_support():
    from fctk.geometry import x_star

    for r in (1, 2, 3):
        params = ModelParams(r, (0,) * r, 25)
        m = rescaled_zero_measure(params, Fraction(1, 10**6))
        assert m.n == 25
        assert all(0 < x < float(x_star(r)) + 0.5 for x in m.points)


def test_ks_distance():
    d1 = FussCatalanDist(1)
    m = rescaled_zero_measure(ModelParams(1, (0,), 200), Fraction(1, 10**9))
    ks200 = ks_distance(m, d1)
    assert ks200 < 0.05
    m50 = rescaled_zero_measure(ModelParams(1, (0,), 50), Fraction(1, 10**9))
    assert ks200 < ks_distance(m50, d1)
    # a point mass far from the support is at distance ~1
    assert ks_distance(EmpiricalMeasure((50.0,)), d1) == 1.0


def test_ks_monotone_chain():
    tol = Fraction(1, 10**9)
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        chain = [
            ks_distance(rescaled_zero_measure(ModelParams(r, (0,) * r, n), tol), d)
            for n in (25, 50, 100, 200)
        ]
        assert all(a > b for a, b in zip(chain, chain[1:])), (r, chain)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-1.0, 10.0), max_size=40))
def test_ks_distance_matches_a_per_point_loop(r, points):
    d = FussCatalanDist(r)
    m = EmpiricalMeasure(tuple(points))
    reference = 0.0
    for i, x in enumerate(m.points):
        c = d.cdf(x)
        reference = max(reference, abs((i + 1) / m.n - c), abs(i / m.n - c))
    assert ks_distance(m, d) == reference
