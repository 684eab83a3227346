"""Each correctness check passes on the program's output and fails on a wrong one."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import checks
from fctk import (
    FussCatalanDist,
    ModelParams,
    PhiCoordinate,
    QuadratureGrid,
    build_f,
    contour_eval,
    eval_exact,
    isolate_zeros,
    msp_value,
    pr_approx,
    rescale_arg,
    verify_h_max,
)
from fctk.asymptotics import cosine_approximant, normalized_poly, pr_prefactor_log

TOL = Fraction(1, 10**12)


def test_exact_series_matches_definition_at_small_degree():
    # F_2(2x) for r = 1, nu = (0,) is 1 - 2(2x) + (2x)^2/2 = 1 - 4x + 2x^2
    assert checks.exact_series(1, (0,), 2, Fraction(1, 3)) == 1 - Fraction(4, 3) + Fraction(2, 9)


def test_contour_check():
    params = ModelParams(2, (1, 0), 4)
    x = Fraction(2)
    approx = contour_eval(params, float(x), QuadratureGrid(2, 256))
    exact = eval_exact(rescale_arg(build_f(params), params), x)
    assert checks.check_contour("c", approx, exact, 2, (1, 0), 4, x) == []
    assert checks.check_contour("c", approx * (1 + 1e-6), exact, 2, (1, 0), 4, x)
    assert checks.check_contour("c", approx, exact + Fraction(1, 10**30), 2, (1, 0), 4, x)


def _enclosures(r, nu, n):
    params = ModelParams(r, nu, n)
    return [(e.lo, e.hi) for e in isolate_zeros(rescale_arg(build_f(params), params), TOL)]


def test_enclosure_check_accepts_the_isolator():
    assert checks.check_enclosures(2, (1, 3), 12, _enclosures(2, (1, 3), 12), TOL) == []


def test_enclosure_check_rejects_a_missing_root():
    encl = _enclosures(1, (2,), 9)
    assert checks.check_enclosures(1, (2,), 9, encl[:-1], TOL)


def test_enclosure_check_rejects_an_enclosure_without_sign_change():
    encl = _enclosures(1, (0,), 6)
    lo, hi = encl[2]
    gap = (encl[3][0] - hi) / 2  # halfway to the next root: no root inside
    encl[2] = (hi + gap / 4, hi + gap / 4 + (hi - lo))
    problems = checks.check_enclosures(1, (0,), 6, encl, TOL)
    assert any("no sign change" in p for p in problems)


def test_enclosure_check_rejects_wide_overlapping_and_shifted_enclosures():
    encl = _enclosures(3, (0, 1, 2), 8)
    wide = list(encl)
    wide[0] = (wide[0][0] - TOL, wide[0][1])
    assert any("wider" in p for p in checks.check_enclosures(3, (0, 1, 2), 8, wide, TOL))
    overlap = list(encl)
    overlap[1] = (overlap[0][0], overlap[1][1])
    assert any("overlap" in p for p in checks.check_enclosures(3, (0, 1, 2), 8, overlap, TOL))
    # every enclosure moved right by 2 tol: the midpoints no longer sum to
    # -c_{n-1}/c_n within n tol, though each still certifies its root
    shift = [(lo + 2 * TOL, hi + 2 * TOL) for lo, hi in encl]
    assert any("sum" in p for p in checks.check_enclosures(3, (0, 1, 2), 8, shift, TOL))


def test_ks_check():
    assert checks.check_ks("k", 0.049) == []
    assert checks.check_ks("k", 0.05)
    assert checks.check_ks("k", float("nan"))


def test_moment_check_rejects_a_shifted_moment():
    exact = [float(checks.fc_moment(2, k)) for k in (1, 2, 3)]
    assert checks.check_moments(2, exact, 10_000, "m") == []
    se = math.sqrt(float(checks.fc_moment(2, 4) - checks.fc_moment(2, 2) ** 2) / 10_000)
    shifted = [exact[0], exact[1] + 4 * se, exact[2]]
    assert checks.check_moments(2, shifted, 10_000, "m")


def test_dkw_check():
    draws = FussCatalanDist(2).sample(10_000, 5)
    assert checks.check_dkw(2, draws, "d") == []
    assert checks.check_dkw(2, draws * 1.3, "d")
    assert checks.check_dkw(1, draws, "d")  # draws of the wrong order


def test_own_cdf_is_the_marchenko_pastur_cdf_at_order_one():
    from scipy.integrate import quad

    x = np.array([0.5, 1.0, 2.0, 3.5])
    want = [quad(lambda t: math.sqrt(4 - t) / (2 * math.pi * math.sqrt(t)), 0, v)[0] for v in x]
    assert np.allclose(checks.fc_cdf(1, x), want, atol=1e-9)


def test_msp_check():
    params = ModelParams(2, (1, 2), 40)
    c = PhiCoordinate(2, 0.4)
    msp, pr = msp_value(params, c), pr_approx(params, c).assembled
    assert checks.check_msp("m", msp, pr) == []
    assert checks.check_msp("m", msp * (1 + mp.mpf("1e-8")), pr)


def test_hmax_check():
    c = PhiCoordinate(2, 0.4)
    argmax, _ = verify_h_max(c, 256)
    assert checks.check_hmax("h", 2, 0.4, 256, argmax) == []
    cell = 2 * math.pi * math.sqrt(2) / 256
    assert checks.check_hmax("h", 2, 0.4, 256, argmax + 2 * cell)


def test_stieltjes_check():
    d = FussCatalanDist(2)
    z = complex(3, 7)
    value = d.stieltjes(z)
    assert checks.check_stieltjes("s", 2, z, value, far=False) == []
    assert checks.check_stieltjes("s", 2, z, value * (1 + 1e-6), far=False)
    # the other roots of the trinomial: residual fine, branch wrong
    w = z * value
    other = [rt for rt in np.roots([1, 0, -z, z]) if abs(rt - w) > 1e-3]
    assert all(checks.check_stieltjes("s", 2, z, rt / z, far=False) for rt in other)
    far = 1e6 * complex(math.cos(1.0), math.sin(1.0))
    assert checks.check_stieltjes("s", 2, far, d.stieltjes(far), far=True) == []
    far_w = [rt for rt in np.roots([1, 0, -far, far]) if abs(rt - 1) > 1e-2]
    assert all(checks.check_stieltjes("s", 2, far, rt / far, far=True) for rt in far_w)


def test_stieltjes_moment_check():
    values = [float(checks.fc_moment(3, k)) for k in range(5)]
    assert checks.check_stieltjes_moments("s", 3, values) == []
    values[2] *= 1 + 1e-5
    assert checks.check_stieltjes_moments("s", 3, values)


@pytest.fixture(scope="module")
def fig1_rows():
    from fctk.asymptotics import FIG1_PARAMS

    phis = [0.4 + 0.0005 * i for i in range(12)]
    return FIG1_PARAMS, [
        (phi,
         normalized_poly(FIG1_PARAMS, PhiCoordinate(3, phi)),
         cosine_approximant(FIG1_PARAMS, PhiCoordinate(3, phi)))
        for phi in phis
    ]


def test_fig1_exact_check(fig1_rows):
    params, rows = fig1_rows
    phi, ft, _ = rows[3]
    lm = pr_prefactor_log(params, PhiCoordinate(3, phi)).log_magnitude
    assert checks.check_fig1_exact(3, params.nu, params.n, phi, ft, lm) == []
    assert checks.check_fig1_exact(3, params.nu, params.n, phi, ft + 1e-7, lm)


def test_fig1_row_checks(fig1_rows):
    _, rows = fig1_rows
    assert checks.check_fig1_rows(rows) == []
    far = [(phi, ft, cn + 0.3) for phi, ft, cn in rows]
    assert any("F~ - c_n" in p for p in checks.check_fig1_rows(far))
    loud = [(phi, 2 * ft, 2 * cn) for phi, ft, cn in rows]
    assert any("above" in p for p in checks.check_fig1_rows(loud))
    # flip the sign of F~ at one interior row: two extra sign changes
    k = next(i for i in range(1, len(rows) - 1)
             if rows[i - 1][1] * rows[i][1] > 0 and rows[i][1] * rows[i + 1][1] > 0)
    flipped = list(rows)
    phi, ft, cn = flipped[k]
    flipped[k] = (phi, -ft * 1e-3, cn)
    assert any("unpaired" in p for p in checks.check_fig1_rows(flipped))
