"""Oscillatory large-n approximation of the rescaled polynomials.

For x = rho(phi) the rescaled polynomial F_n(n^r x) behaves like

    prefactor(n, phi) * ( cos(n (r a(phi) sin phi - (r+1) phi) + g) + o(1) ),

with a(phi) = sin((r+1)phi)/sin(r phi) and the phase shift g from
fctk.geometry.  The prefactor grows like exp(Theta(n)), so all magnitude
bookkeeping is done in log-domain with an explicit sign bit and only the
final assembly touches big floats.  The normalized polynomial (the
polynomial's value divided by the full prefactor) evaluates the exact
integer coefficients at the big-float rho(phi) with a certified error
bound (poly.eval_bounded), which absorbs the catastrophic cancellation
of the alternating sum; its first precision is the cancellation that
the log prefactor predicts.

Every big-float assembly (here and in contour.msp_value) runs at the one
precision of _working_prec, 140 + bitlen(n) + bitlen(r + sum(nu)) bits:
an mpf's exponent is unbounded, so the precision needs to cover only the
logarithms of the magnitudes, not the magnitudes themselves.  The point
rho(phi), the log prefactor and the phase read only sin phi, cos phi,
sin r phi, sin (r+1) phi and cos (r+1) phi; each assembly evaluates
these once at that precision (_sines, two of them per mp.cos_sin) and
feeds them to geometry's forms over given sines, so a fig1 row
(normalized_poly and cosine_approximant) costs 11 trigonometric values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import geometry, poly
from .errors import DomainError
from .geometry import PhiCoordinate
from .poly import ExactPolynomial, ModelParams

# Flagship grid reproduction: r=3, nu=(2,4,5), n=150 on [0.5 pi/4, 0.55 pi/4].
FIG1_PARAMS = ModelParams(r=3, nu=(2, 4, 5), n=150)
FIG1_PHI_LO = 0.5 * math.pi / 4
FIG1_PHI_HI = 0.55 * math.pi / 4
FIG1_COUNT = 200

# bits of eval_bounded's first pass beyond the cancellation and the
# accuracy asked, for |F~| below 1 (normalized_poly)
_SPARE_BITS = 16


@dataclass(frozen=True)
class PRValue:
    """Log-domain value: assembled = (-1)^n exp(log_magnitude) cosine_approximant.

    pr_prefactor_log leaves `assembled` unset.
    """

    log_magnitude: float
    assembled: mp.mpf | None = None


def _match(params: ModelParams, c: PhiCoordinate):
    if params.r != c.r:
        raise DomainError(f"params.r={params.r} does not match coordinate r={c.r}")


def _sines(r: int, phi):
    """sin phi, cos phi, sin r phi, sin (r+1) phi, cos (r+1) phi at the current mp precision.

    Every formula of the assembly reads only these five values; each
    shared angle takes one mp.cos_sin.
    """
    c1, s1 = mp.cos_sin(phi)
    cr1, sr1 = mp.cos_sin((r + 1) * phi)
    return s1, c1, mp.sin(r * phi), sr1, cr1


def _log_prefactor(params: ModelParams, sines):
    """log of the positive part of the amplitude, from _sines at the current mp precision."""
    r, n, snu = params.r, params.n, params.nu_sum
    s1, c1, sr, sr1, cr1 = sines
    return (
        mp.log(2)
        - r * mp.log(2 * mp.pi) / 2
        + (mp.mpf(r) / 2 + snu) * mp.log(sr / (n * sr1))
        + n * r * geometry._saddle_modulus(sr, sr1) * c1
        + n * mp.log(sr / s1)
        - mp.log(geometry._hess_quartic(r, s1, sr, sr1, cr1)) / 4
    )


def _cos_argument(params: ModelParams, phi, sines):
    """The phase g - n f, from _sines at the current mp precision."""
    r, n = params.r, params.n
    s1, _, sr, sr1, cr1 = sines
    return (
        geometry._g_shift(r, params.nu, phi, s1, sr, sr1, cr1, mp)
        - n * geometry._f(r, phi, s1, sr, sr1)
    )


def _working_prec(params: ModelParams) -> int:
    """Bits for the big-float assembly: 140 + bitlen(n) + bitlen(r + sum(nu)).

    The assembly needs lm = _log_prefactor and the phase n f - g to
    2^-64 absolute, since e^lm and cos(n f - g) then come out to about
    2^-64 relative and absolute.  Each is a sum of a few terms.  A term
    is a product of at most a few roundings, or a multiplier times the
    logarithm of such a product, whose rounding becomes a few units of
    2^-prec absolute in the logarithm; either way a term errs by a few
    units of 2^-prec times T, the largest term or multiplier, so prec
    must exceed 64 plus log2 T.  For a double phi in the open interval,
    sin(phi) and sin(r phi) lie in [2 phi / pi, 1], above 2^-1075, and
    so does sin((r+1) phi) unless phi is within 2^-1075 of pi/(r+1).
    The saddle modulus a(phi) = sin((r+1) phi)/sin(r phi) is at most
    (r+1)/r, and sin(r phi)/sin(phi) lies in [1, r].  With
    s = r + sum(nu) this gives

        |(r/2 + sum(nu)) ln(sin r phi / (n sin (r+1) phi))| <= s (ln n + 746),
        |n r a(phi) cos phi| <= n (r + 1),  |n ln(sin r phi / sin phi)| <= n ln r,
        |n f(phi)| <= n pi,  |g| <= 2 (s + 1),

    and the rest, ln 2 - (r/2) ln(2 pi) - ln(q)/4 with the quartic
    bracket q about ((r+1) phi)^2 at phi -> 0 and (r+1)^2 at the top,
    is at most 374 + 2 r in modulus.  So T < 2^(bitlen(n) + bitlen(s) + 11),
    and the rule leaves more than 128 bits below T: 64 for the accuracy
    asked and 64 spare, which also cover a logarithm up to 2^60 times
    larger than assumed.
    contour.msp_value assembles the same magnitudes (exp(-n p) with
    |n p| <= n (r + 1 + ln r + pi) and powers of the same sines), so the
    same precision serves it.
    """
    return 140 + params.n.bit_length() + (params.r + params.nu_sum).bit_length()


def cosine_approximant(params: ModelParams, c: PhiCoordinate) -> float:
    """cos(g(r, nu, phi) - n f(phi)), in [-1, 1]."""
    _match(params, c)
    with mp.workprec(_working_prec(params)):
        phi = mp.mpf(c.phi)
        return float(mp.cos(_cos_argument(params, phi, _sines(params.r, phi))))


def zero_hints(params: ModelParams) -> np.ndarray:
    """The hints of zeros.isolate_zeros for F_n(n^r x), from the cosine approximant.

    The phase n f - g runs from -pi/4 at phi = 0 past n pi at
    phi = pi/(r+1), and one call of geometry.solve_phi finds its 2n - 1
    crossings of j pi/2, j = 1..2n-1, returned as the increasing points
    x = rho(phi_j), with no rounding.  The odd j, where the cosine
    vanishes, give the even positions: n estimates of the zeros
    themselves.  The even j = 2k give the odd positions, the separators
    x_k with n f(phi_k) - g(phi_k) = k pi, k = 1..n-1: the extrema of
    cosine_approximant, so the oscillatory formula puts one zero in each
    gap between consecutive separators, one below the first and one
    above the last.  zeros.isolate_zeros proves or rejects them by
    certified signs.
    """
    r, n, nu = params.r, params.n, params.nu

    def phase(t):
        s1, sr, sr1, cr1 = geometry._d_sines(r, t, np)
        value = n * geometry._f(r, t, s1, sr, sr1) - geometry._g_shift(
            r, nu, t, s1, sr, sr1, cr1, np
        )
        slope = n * geometry._f_deriv(r, s1, sr, sr1, cr1) - geometry._g_deriv(
            r, nu, s1, sr, sr1, cr1, np.sin((r + 2) * t)
        )
        return value, slope

    phi = geometry.solve_phi(r, phase, np.pi / 2 * np.arange(1, 2 * n))
    return geometry.rho_at(r, phi, np)[::-1]


def pr_prefactor_log(params: ModelParams, c: PhiCoordinate) -> PRValue:
    """Amplitude of the oscillatory approximation, `assembled` unset.

    log_magnitude collects 2/(2 pi)^(r/2), the (sin r phi/(n sin(r+1)phi))
    power, the exponential factor, |sin r phi / sin phi|^n and the inverse
    quartic root; the sign (-1)^n from the negative base is left out.
    """
    _match(params, c)
    if params.n < 1:
        raise DomainError("prefactor requires degree n >= 1")
    with mp.workprec(_working_prec(params)):
        lm = _log_prefactor(params, _sines(params.r, mp.mpf(c.phi)))
    return PRValue(log_magnitude=float(lm))


def pr_approx(params: ModelParams, c: PhiCoordinate) -> PRValue:
    """Full oscillatory approximation with the o(1) term dropped."""
    _match(params, c)
    if params.n < 1:
        raise DomainError("approximation requires degree n >= 1")
    with mp.workprec(_working_prec(params)):
        phi = mp.mpf(c.phi)
        sines = _sines(params.r, phi)
        lm = _log_prefactor(params, sines)
        assembled = (-1) ** params.n * mp.exp(lm) * mp.cos(_cos_argument(params, phi, sines))
    return PRValue(log_magnitude=float(lm), assembled=assembled)


@lru_cache(maxsize=16)
def _rescaled_f(params: ModelParams) -> ExactPolynomial:
    return poly.rescale_arg(poly.build_f(params), params)


def normalized_poly(params: ModelParams, c: PhiCoordinate) -> float:
    """F_n(n^r rho(phi)) divided by the full prefactor; O(1) in n.

    The point is rho(phi) in mpmath at the working precision of the
    assembly, prec = 140 + bitlen(n) + bitlen(r + sum(nu)) bits
    (_working_prec), a dyadic M 2^e within a few units of 2^-prec
    relative of the true rho(phi), read once from the mpf as the pair
    (M, -e) that poly.eval_bounded takes.  It evaluates the polynomial
    exactly there up to a certified error of at most 2^-64 of the value.
    Its fixed-point Horner errs by less than 2 (n + 1) units of 2^g,
    g = top - bits, with top the largest term's exponent
    (ExactPolynomial.term_top at the binade bitlen(M) + e), and the value
    L F_n(n^r x) is about L e^lm F~ with lm the log prefactor.  So `bits`
    starts at

        max(0, top - log2(L e^lm)) + 64 + bitlen(2n + 2) + _SPARE_BITS,

    the cancellation of the alternating sum plus the accuracy asked; the
    spare bits cover |F~| down to about 2^-14, and closer to a zero of F~
    eval_bounded doubles `bits` until the bound holds.  Near the ends of
    the interval, where the formula's prefactor overshoots the value,
    the estimated cancellation is negative and is taken as 0.  The
    remaining roundings are those of the mpmath assembly at prec bits.
    A point that is not finite raises DomainError.
    """
    _match(params, c)
    if params.n < 1:
        raise DomainError("normalization requires degree n >= 1")
    rescaled = _rescaled_f(params)
    lcm = rescaled.integer_form[1]
    with mp.workprec(_working_prec(params)):
        sines = _sines(params.r, mp.mpf(c.phi))
        s1, _, sr, sr1, _ = sines
        x = geometry._rho(params.r, s1, sr, sr1)
        if not mp.isfinite(x):
            raise DomainError(f"evaluation point must be finite, got {x!r}")
        sign, man, exp, _ = x._mpf_
        lm = _log_prefactor(params, sines)
        cancellation = max(
            0,
            rescaled.term_top(man.bit_length() + exp)
            - lcm.bit_length()
            - math.floor(lm / mp.ln2),
        )
        bits = cancellation + 64 + (2 * params.n + 2).bit_length() + _SPARE_BITS
        value, _, exponent = poly.eval_bounded(
            rescaled, -man if sign else man, -exp, bits, 64
        )
        ratio = mp.ldexp(value, exponent) / lcm / mp.exp(lm)
    return float((-1) ** params.n * ratio)


def fig1_row(params: ModelParams, phi: float) -> tuple[float, float, float]:
    """One grid row (phi, normalized polynomial, cosine approximant)."""
    c = PhiCoordinate(params.r, phi)
    return (phi, normalized_poly(params, c), cosine_approximant(params, c))


def fig1_dataset(
    params: ModelParams, phi_lo: float, phi_hi: float, count: int
) -> list[tuple[float, float, float]]:
    """Rows (phi, F_tilde, c_n) at `count` equally spaced phi values."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    top = math.pi / (params.r + 1)
    if not (0.0 < phi_lo < phi_hi < top):
        raise DomainError(
            f"window must satisfy 0 < phi_lo < phi_hi < pi/{params.r + 1}"
        )
    if count == 1:
        grid = [phi_lo]
    else:
        step = (phi_hi - phi_lo) / (count - 1)
        grid = [phi_lo + i * step for i in range(count)]
    return [fig1_row(params, phi) for phi in grid]
