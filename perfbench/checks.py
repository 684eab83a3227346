"""Correctness checks for the benchmark's items, computed apart from fctk.

Every check returns a list of problems (empty when the output is right).
References are the benchmark's own computations: the defining series of
F_n(n^r x) summed exactly over the integers, the exact Fuss-Catalan
moments binom(rk+k, k)/(rk+1), and the law's closed-form CDF in the angle
coordinate, inverted here by a bisection of its own.  Nothing compares
against a stored copy of the program's output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

CONTOUR_REL_TOL = 1e-8
MSP_REL_TOL = 1e-10
FIG1_EXACT_TOL = 1e-9
FIG1_DEVIATION_TOL = 0.25
FIG1_BAND = 1.5
KS_LIMIT = 0.05
MOMENT_STANDARD_ERRORS = 3.0
DKW_ALPHA = 1e-9
TRINOMIAL_RESIDUAL_TOL = 1e-10
FAR_FIELD_TOL = 1e-5
STIELTJES_MOMENT_TOL = 1e-6
RHO_DIGITS = 200


# ---------------------------------------------------------------------------
# exact references

def series_coeffs(r: int, nu, n: int) -> tuple[list[int], int]:
    """Integers A_k and D with F_n(n^r x) = sum_k A_k x^k / D.

    D = prod_j (n + nu_j)!, which every prod_j (k + nu_j)! divides.
    """
    den = math.prod(math.factorial(n + v) for v in nu)
    coeffs = [
        (-1) ** k * math.comb(n, k) * n ** (r * k)
        * (den // math.prod(math.factorial(k + v) for v in nu))
        for k in range(n + 1)
    ]
    return coeffs, den


def series_numerator(coeffs: list[int], x: Fraction) -> int:
    """q^n sum_k A_k (p/q)^k for x = p/q: an integer with the sign of F_n(n^r x)."""
    p, q = x.numerator, x.denominator
    acc, q_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * q_power
        q_power *= q
    return acc


def exact_series(r: int, nu, n: int, x) -> Fraction:
    """F_n(n^r x) summed exactly from its definition."""
    x = Fraction(x)
    coeffs, den = series_coeffs(r, nu, n)
    return Fraction(series_numerator(coeffs, x), den * x.denominator**n)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def rho_rational(r: int, phi: float, digits: int = RHO_DIGITS) -> Fraction:
    """Rational approximant of rho(phi) with a denominator of at most 10^digits."""
    with mp.workdps(3 * digits):
        t = mp.mpf(phi)
        x = mp.sin((r + 1) * t) ** (r + 1) / (mp.sin(t) * mp.sin(r * t) ** r)
        _, man, exp, _ = x._mpf_  # rho > 0, so the sign bit is clear
        q = Fraction(man) * Fraction(2) ** exp
    return q.limit_denominator(10**digits)


def fc_moment(r: int, k: int) -> Fraction:
    return Fraction(math.comb(r * k + k, k), r * k + 1)


def fc_cdf(r: int, x: np.ndarray) -> np.ndarray:
    """CDF 1 - f(phi)/pi at rho(phi) = x, by a 200-step bisection in phi."""
    x = np.asarray(x, dtype=float)
    lo = np.zeros_like(x)
    hi = np.full_like(x, math.pi / (r + 1))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.sin((r + 1) * mid) ** (r + 1) / (np.sin(mid) * np.sin(r * mid) ** r)
        right = rho > x  # rho decreases, so the root lies right of mid
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    phi = 0.5 * (lo + hi)
    f = (r + 1) * phi - r * np.sin((r + 1) * phi) * np.sin(phi) / np.sin(r * phi)
    cdf = 1.0 - f / math.pi
    return np.where(x <= 0.0, 0.0, np.where(x >= (r + 1) ** (r + 1) / r**r, 1.0, cdf))


# ---------------------------------------------------------------------------
# fig1

def check_fig1_exact(r, nu, n, phi, value, log_magnitude) -> list[str]:
    """normalized_poly against the exact series at a 200-digit rho(phi)."""
    x = rho_rational(r, phi)
    coeffs, den = series_coeffs(r, nu, n)
    num = series_numerator(coeffs, x)
    with mp.workprec(512):
        own = mp.mpf(num) / (mp.mpf(den) * mp.mpf(x.denominator) ** n)
        own = (-1) ** n * own * mp.exp(-mp.mpf(log_magnitude))
    err = abs(float(own) - value)
    if not err <= FIG1_EXACT_TOL:
        return [f"fig1 phi={phi!r}: normalized {value!r} vs exact {float(own)!r} (|diff| {err:.2e})"]
    return []


def _sign_changes(vals) -> list[int]:
    return [i for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0]


def check_fig1_rows(rows) -> list[str]:
    """Rows (phi, F~, c_n) in phi order: deviation, band, paired sign changes."""
    problems = []
    for phi, ft, cn in rows:
        if not abs(ft - cn) < FIG1_DEVIATION_TOL:
            problems.append(f"fig1 phi={phi!r}: |F~ - c_n| = {abs(ft - cn):.4f}")
        if not abs(ft) <= FIG1_BAND:
            problems.append(f"fig1 phi={phi!r}: |F~| = {abs(ft):.4f} above {FIG1_BAND}")
    s_ft = _sign_changes([row[1] for row in rows])
    s_cn = _sign_changes([row[2] for row in rows])
    if len(s_ft) != len(s_cn) or any(abs(i - j) > 1 for i, j in zip(s_ft, s_cn)):
        problems.append(f"fig1 sign changes unpaired: F~ at {s_ft}, c_n at {s_cn}")
    return problems


# ---------------------------------------------------------------------------
# zeros

def check_enclosures(r, nu, n, enclosures, tol) -> list[str]:
    """Count, positivity, disjointness, width, exact sign change, root sum."""
    tag = f"zeros r={r} nu={tuple(nu)} n={n}"
    if len(enclosures) != n:
        return [f"{tag}: {len(enclosures)} enclosures for degree {n}"]
    problems = []
    coeffs, _ = series_coeffs(r, nu, n)
    for i, (lo, hi) in enumerate(enclosures):
        if not 0 < lo <= hi:
            problems.append(f"{tag}: enclosure {i} [{lo}, {hi}] not positive")
        if hi - lo > tol:
            problems.append(f"{tag}: enclosure {i} wider than tol")
        if i and enclosures[i - 1][1] > lo:
            problems.append(f"{tag}: enclosures {i - 1} and {i} overlap")
        s_lo = _sign(series_numerator(coeffs, Fraction(lo)))
        if lo == hi:
            ok = s_lo == 0
        else:
            ok = s_lo * _sign(series_numerator(coeffs, Fraction(hi))) < 0
        if not ok:
            problems.append(f"{tag}: no sign change across enclosure {i} [{lo}, {hi}]")
    root_sum = Fraction(-coeffs[n - 1], coeffs[n]) if n else Fraction(0)
    mid_sum = sum((Fraction(lo) + Fraction(hi)) / 2 for lo, hi in enclosures)
    if abs(mid_sum - root_sum) > n * Fraction(tol):
        problems.append(f"{tag}: midpoints sum to {float(mid_sum)!r}, roots to {float(root_sum)!r}")
    return problems


def check_ks(label, ks, limit=KS_LIMIT) -> list[str]:
    if not 0.0 <= ks < limit:
        return [f"{label}: KS {ks!r} not below {limit}"]
    return []


# ---------------------------------------------------------------------------
# spectra

def check_moments(r, moments, count, label) -> list[str]:
    """Raw moments 1..3 within 3 standard errors of the law's exact moments.

    The standard error uses the law's own variance, (m_2k - m_k^2)/count.
    """
    problems = []
    for k, got in enumerate(moments, start=1):
        exact = float(fc_moment(r, k))
        se = math.sqrt(float(fc_moment(r, 2 * k) - fc_moment(r, k) ** 2) / count)
        if not abs(got - exact) <= MOMENT_STANDARD_ERRORS * se:
            problems.append(f"{label}: moment {k} = {got!r}, exact {exact}, SE {se:.3g}")
    return problems


def check_dkw(r, draws, label, alpha=DKW_ALPHA) -> list[str]:
    """KS of the draws against the law within the DKW bound at level alpha."""
    x = np.sort(np.asarray(draws, dtype=float))
    count = x.size
    if count == 0:
        return [f"{label}: no draws"]
    cdf = fc_cdf(r, x)
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(count) / count
    ks = float(max(upper.max(), lower.max()))
    bound = math.sqrt(math.log(2.0 / alpha) / (2.0 * count))
    if not ks <= bound:
        return [f"{label}: draw KS {ks:.4g} above the DKW bound {bound:.4g}"]
    return []


# ---------------------------------------------------------------------------
# oracles

def check_contour(label, approx, exact_program, r, nu, n, x) -> list[str]:
    own = exact_series(r, nu, n, x)
    problems = []
    if exact_program != own:
        problems.append(f"{label}: eval_exact {exact_program} != series {own}")
    if own == 0:
        return problems + [f"{label}: exact value is zero; relative check undefined"]
    rel = abs(approx - float(own)) / abs(float(own))
    if not rel <= CONTOUR_REL_TOL:
        problems.append(f"{label}: contour rel error {rel:.2e}")
    return problems


def check_msp(label, msp, pr) -> list[str]:
    rel = float(abs(msp - pr) / abs(pr)) if pr != 0 else math.inf
    if not rel <= MSP_REL_TOL:
        return [f"{label}: msp vs pr_approx rel {rel:.2e}"]
    return []


def check_hmax(label, r, phi, m, argmax) -> list[str]:
    argmax = np.asarray(argmax, dtype=float)
    dist = min(np.linalg.norm(argmax - phi), np.linalg.norm(argmax + phi))
    cell = 2 * math.pi * math.sqrt(r) / m
    if not dist <= cell:
        return [f"{label}: argmax {argmax.tolist()} is {dist:.3g} from +-phi, cell {cell:.3g}"]
    return []


def check_stieltjes(label, r, z, value, far) -> list[str]:
    """Trinomial residual of w = zF(z); also zF -> 1 for the far points.

    F is the transform of a probability measure on [0, x_star], so Im F(z)
    and Im z have opposite signs and |F(z)| <= 1/dist(z, [0, x_star]);
    most other roots of the trinomial break one of the two.
    """
    w = z * value
    problems = []
    if z.imag != 0 and not value.imag * z.imag < 0:
        problems.append(f"{label}: Im F = {value.imag!r} has the sign of Im z")
    x_star = (r + 1) ** (r + 1) / r**r
    dist = abs(z - min(max(z.real, 0.0), x_star))
    if not abs(value) * dist <= 1.0 + 1e-12:
        problems.append(f"{label}: |F| = {abs(value):.4g} above 1/dist = {1 / dist:.4g}")
    residual = abs(w ** (r + 1) - z * w + z) / ((1 + abs(z)) * (1 + abs(w) ** (r + 1)))
    if not residual <= TRINOMIAL_RESIDUAL_TOL:
        problems.append(f"{label}: trinomial residual {residual:.2e}")
    if far and not abs(w - 1) <= FAR_FIELD_TOL:
        problems.append(f"{label}: |zF - 1| = {abs(w - 1):.2e} at |z| = {abs(z):.3g}")
    return problems


def check_stieltjes_moments(label, r, values) -> list[str]:
    problems = []
    for k, v in enumerate(values):
        exact = float(fc_moment(r, k))
        if not abs(v - exact) <= STIELTJES_MOMENT_TOL * exact:
            problems.append(f"{label}: moment {k} = {v!r}, exact {exact}")
    return problems
