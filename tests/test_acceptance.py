"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Thresholds that are not analytic guarantees are calibration constants
frozen after the first oracle runs; monotone-improvement checks are the
hard requirements where no convergence rate is available.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import fctk
from fctk import (
    FussCatalanDist,
    ModelParams,
    PhiCoordinate,
    QuadratureGrid,
    build_f,
    contour_eval,
    eval_exact,
    identity_check,
    isolate_zeros,
    ks_distance,
    rescale_arg,
    rescaled_zero_measure,
    verify_h_max,
    x_star,
)
from fctk.asymptotics import (
    FIG1_COUNT,
    FIG1_PARAMS,
    FIG1_PHI_HI,
    FIG1_PHI_LO,
    cosine_approximant,
    fig1_dataset,
    normalized_poly,
)
from fctk.geometry import f_deriv_at, rho_deriv_at, saddle_modulus_at
from fctk.rmt import aggregate_measure, mean_moment


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_contour_vs_exact():
    t0 = time.time()
    worst_rel = 0.0
    zero_cases = 0
    cases = 0
    # r <= 3 with every offset in {0, 1, 2}; r = 4..6 with offsets in {0, 2}
    for r in (1, 2, 3, 4, 5, 6):
        m = 96 if r == 3 else 256
        grid = QuadratureGrid(r, m)
        xs = x_star(r)
        points = (Fraction(1), Fraction(2), xs / 2)
        offsets = (0, 1, 2) if r <= 3 else (0, 2)
        for nu in itertools.product(offsets, repeat=r):
            for n in range(1, 7):
                params = ModelParams(r, nu, n)
                rescaled = rescale_arg(build_f(params), params)
                for x in points:
                    cases += 1
                    exact = eval_exact(rescaled, x)
                    approx = contour_eval(params, float(x), grid)
                    if exact == 0:
                        # integrand sup bound scales the roundoff floor
                        phi = fctk.rho_inv(r, float(x)).phi
                        a = saddle_modulus_at(r, phi)
                        b = math.sin((r + 1) * phi) / math.sin(phi)
                        bound = math.exp(n * a * r) * (1 + b) ** n
                        assert abs(approx) <= 1e-10 * bound, (params, x, approx)
                        zero_cases += 1
                        continue
                    rel = abs(approx - float(exact)) / abs(float(exact))
                    worst_rel = max(worst_rel, rel)
                    assert rel <= 1e-8, (params, x, rel)
    report(
        1,
        worst_rel <= 1e-8,
        f"worst rel error {worst_rel:.2e} (tol 1e-8) over {cases} cases at r <= 6, "
        f"{zero_cases} exact-zero points checked absolutely, {time.time() - t0:.0f}s",
    )


def test_criterion_02_oscillatory_convergence():
    t0 = time.time()
    details = []
    ok = True
    for r, nu in ((1, (0,)), (2, (1, 2)), (3, (2, 4, 5))):
        phi = 0.6 * math.pi / (r + 1)
        devs = []
        for n in (50, 100, 200):
            params = ModelParams(r, nu, n)
            c = PhiCoordinate(r, phi)
            devs.append(abs(normalized_poly(params, c) - cosine_approximant(params, c)))
        monotone = devs[0] > devs[1] > devs[2]
        ok = ok and monotone and devs[2] < 0.1
        details.append(f"r={r}: {devs[0]:.4f}>{devs[1]:.4f}>{devs[2]:.4f}")
    report(2, ok, "; ".join(details) + f" (tol 0.1 at n=200), {time.time() - t0:.0f}s")


def test_criterion_03_flagship_grid_reproduction():
    t0 = time.time()
    rows = fig1_dataset(FIG1_PARAMS, FIG1_PHI_LO, FIG1_PHI_HI, FIG1_COUNT)
    ft = [row[1] for row in rows]
    cn = [row[2] for row in rows]
    max_dev = max(abs(a - b) for a, b in zip(ft, cn))
    in_band = all(-1.5 <= v <= 1.5 for v in ft)

    def sign_changes(vals):
        return [i for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0]

    s_ft, s_cn = sign_changes(ft), sign_changes(cn)
    paired = len(s_ft) == len(s_cn) and all(
        abs(i - j) <= 1 for i, j in zip(s_ft, s_cn)
    )
    ok = max_dev < 0.25 and in_band and paired
    report(
        3,
        ok,
        f"max|F~-c|={max_dev:.4f} (tol 0.25), bound ok={in_band}, "
        f"{len(s_ft)} sign changes pairwise within one step={paired}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_04_real_positive_simple_roots():
    t0 = time.time()
    tol = Fraction(1, 2**24)
    checked = 0
    for r in (1, 2, 3):
        for nu in itertools.product((0, 1, 2, 3), repeat=r):
            for n in range(1, 26):
                f = build_f(ModelParams(r, nu, n))
                enclosures = isolate_zeros(f, tol)
                assert len(enclosures) == n, (r, nu, n)
                assert all(e.lo > 0 for e in enclosures)
                assert all(
                    a.hi <= b.lo for a, b in zip(enclosures, enclosures[1:])
                )
                checked += 1
    report(4, True, f"{checked} polynomials, count always equals degree, "
                    f"{time.time() - t0:.0f}s")


def test_criterion_05_zero_measure_ks():
    t0 = time.time()
    details = []
    ok = True
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        ks = {}
        for n in (50, 200):
            m = rescaled_zero_measure(ModelParams(r, (0,) * r, n))
            ks[n] = ks_distance(m, d)
        ok = ok and ks[200] < 0.05 and ks[200] < ks[50]
        details.append(f"r={r}: KS(50)={ks[50]:.4f} KS(200)={ks[200]:.4f}")
    report(5, ok, "; ".join(details) + f" (tol 0.05, monotone), {time.time() - t0:.0f}s")


def test_criterion_06_density_identities():
    t0 = time.time()
    worst_identity = 0.0
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        top = math.pi / (r + 1)
        for i in range(1, 1000):
            phi = i * top / 1000
            closed = d.density_phi(PhiCoordinate(r, phi))
            printed = -f_deriv_at(r, phi) / (math.pi * rho_deriv_at(r, phi))
            worst_identity = max(worst_identity, abs(printed - closed) / closed)
    d1 = FussCatalanDist(1)
    worst_mp = max(
        abs(d1.density_x(4 * i / 1000) - math.sqrt(4 - 4 * i / 1000) / (2 * math.pi * math.sqrt(4 * i / 1000)))
        for i in range(1, 1000)
    )
    from scipy.integrate import quad

    worst_norm = 0.0
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        top = math.pi / (r + 1)
        total, _ = quad(
            lambda phi: d.density_phi(PhiCoordinate(r, phi)) * (-rho_deriv_at(r, phi)),
            0,
            top,
            epsabs=0,
            epsrel=1e-13,
            limit=200,
            points=None,
        )
        worst_norm = max(worst_norm, abs(total - 1))
    ok = worst_identity <= 1e-10 and worst_mp <= 1e-12 and worst_norm <= 1e-10
    report(
        6,
        ok,
        f"identity rel {worst_identity:.1e} (tol 1e-10), r=1 closed form abs "
        f"{worst_mp:.1e} (tol 1e-12), normalization {worst_norm:.1e} (tol 1e-10), "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_07_moment_identities():
    t0 = time.time()
    worst_moment = 0.0
    for r in (1, 2, 3, 4):
        d = FussCatalanDist(r)
        for n in range(11):
            exact = d.moment_exact(n)
            worst_moment = max(
                worst_moment, abs(d.moment_quadrature(n) - exact) / float(exact)
            )
    worst_identity = 0.0
    for r in (1, 2, 3):
        for n in range(6):
            lhs, rhs = identity_check(r, n)
            worst_identity = max(worst_identity, abs(lhs - rhs) / float(rhs))
    ok = worst_moment <= 1e-10 and worst_identity <= 1e-9
    report(
        7,
        ok,
        f"moments rel {worst_moment:.1e} (tol 1e-10), integral identity rel "
        f"{worst_identity:.1e} (tol 1e-9), {time.time() - t0:.0f}s",
    )


def test_criterion_08_h_max_grid():
    t0 = time.time()
    rnd = np.random.default_rng(2024)
    worst_ratio = 0.0
    for r in (1, 2, 3, 4, 5, 6):
        m = 96 if r == 3 else 256
        cell = 2 * math.pi * math.sqrt(r) / m
        top = math.pi / (r + 1)
        for phi in rnd.uniform(0.001, 0.999, size=10) * top:
            _, dist = verify_h_max(PhiCoordinate(r, float(phi)), m)
            worst_ratio = max(worst_ratio, dist / cell)
            assert dist <= cell, (r, phi, dist, cell)
    report(8, True, f"argmax within one cell everywhere "
                    f"(worst distance/cell {worst_ratio:.2f}), {time.time() - t0:.0f}s")


def test_criterion_09_rmt_limit():
    t0 = time.time()
    details = []
    ok = True
    for r in (1, 2):
        params = ModelParams(r, (0,) * r, 200)
        measure = aggregate_measure(params, trials=50, seed=20240)
        d = FussCatalanDist(r)
        ks = ks_distance(measure, d)
        pts = np.asarray(measure.points)
        moment_ok = True
        for k in (1, 2, 3):
            exact = float(d.moment_exact(k))
            stderr = (pts**k).std() / math.sqrt(pts.size)
            moment_ok = moment_ok and abs(mean_moment(measure, k) - exact) <= 3 * stderr
        ok = ok and ks < 0.05 and moment_ok
        details.append(f"r={r}: KS={ks:.4f} moments within 3 SE={moment_ok}")
    report(9, ok, "; ".join(details) + f" (tol 0.05), {time.time() - t0:.0f}s")


def test_criterion_10_stieltjes_branch():
    t0 = time.time()
    ok = True
    details = []
    for r in (1, 2, 3):
        d = FussCatalanDist(r)
        far = max(
            abs(z * d.stieltjes(z) - 1)
            for z in (1e6 + 0j, 1e6 * np.exp(1j), 1e6 * np.exp(-2.2j))
        )
        residual = 0.0
        for z in (12.0 + 0j, complex(3, 7), complex(-11, -2)):
            w = z * d.stieltjes(z)
            residual = max(
                residual,
                abs(w ** (r + 1) - z * w + z) / ((1 + abs(z)) * (1 + abs(w) ** (r + 1))),
            )
        mom = d.stieltjes_moments(4)
        mom_rel = max(
            abs(v - float(d.moment_exact(n))) / float(d.moment_exact(n))
            for n, v in enumerate(mom)
        )
        ok = ok and far <= 1e-5 and residual <= 1e-10 and mom_rel <= 1e-6
        details.append(f"r={r}: |zF-1|={far:.1e} res={residual:.1e} mom={mom_rel:.1e}")
    report(10, ok, "; ".join(details) + f" (tols 1e-5/1e-10/1e-6), {time.time() - t0:.0f}s")
