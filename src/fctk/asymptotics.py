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
logarithms of the magnitudes, not the magnitudes themselves.
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
    """Log-domain oscillatory value: sign * exp(log_magnitude) * oscillation."""

    log_magnitude: float
    sign_parity: int
    oscillation: float | None = None
    assembled: mp.mpf | None = None

    @property
    def sign(self) -> int:
        return -1 if self.sign_parity else 1


def _match(params: ModelParams, c: PhiCoordinate):
    if params.r != c.r:
        raise DomainError(f"params.r={params.r} does not match coordinate r={c.r}")


def _log_prefactor(params: ModelParams, phi):
    """log of the positive part of the amplitude at the current mp precision."""
    r, n, snu = params.r, params.n, params.nu_sum
    s1, sr, sr1 = mp.sin(phi), mp.sin(r * phi), mp.sin((r + 1) * phi)
    return (
        mp.log(2)
        - r * mp.log(2 * mp.pi) / 2
        + (mp.mpf(r) / 2 + snu) * (mp.log(sr) - mp.log(n) - mp.log(sr1))
        + n * r * (sr1 / sr) * mp.cos(phi)
        + n * (mp.log(sr) - mp.log(s1))
        - mp.log(geometry.hess_quartic_at(r, phi, mp)) / 4
    )


def _cos_argument(params: ModelParams, phi):
    r, n = params.r, params.n
    return geometry.g_shift_at(r, params.nu, phi, mp) - n * geometry.f_at(r, phi, mp)


def _working_prec(params: ModelParams) -> int:
    """Bits for the big-float assembly: 140 + bitlen(n) + bitlen(r + sum(nu)).

    The assembly needs lm = _log_prefactor and the phase n f - g to
    2^-64 absolute, since e^lm and cos(n f - g) then come out to about
    2^-64 relative and absolute.  Each is a sum of a few terms, each
    computed to a few units of 2^-prec relative, so prec must exceed 64
    plus log2 of the largest term T.  For a double phi in the open
    interval, sin(phi) and sin(r phi) lie in [2 phi / pi, 1], above
    2^-1075, and so does sin((r+1) phi) unless phi is within 2^-1075 of
    pi/(r+1); the quartic bracket of _log_prefactor is about
    ((r+1) phi)^2 at phi -> 0 and tends to (r+1)^2 at the top.  Every
    logarithm is thus at most about 746 in modulus, and with s = r + sum(nu)

        |(r/2 + sum(nu)) ln(sin r phi / (n sin (r+1) phi))| <= s (ln n + 1492),
        |n r a(phi) cos phi|, |n ln(sin r phi / sin phi)|  <= n (r + 1),
        |n f(phi)| <= n pi,  |g| <= 2 (s + 1),  the rest   <= 374 + 2 r,

    so T < 2^(bitlen(n) + bitlen(s) + 11).  The rule leaves more than
    128 bits below T: 64 for the accuracy asked and 64 spare, which also
    cover a logarithm up to 2^60 times larger than assumed.
    contour.msp_value assembles the same magnitudes (exp(-n p) with
    |n p| <= n (r + 1 + ln r + pi) and powers of the same sines), so the
    same precision serves it.
    """
    return 140 + params.n.bit_length() + (params.r + params.nu_sum).bit_length()


def cosine_approximant(params: ModelParams, c: PhiCoordinate) -> float:
    """cos(g(r, nu, phi) - n f(phi)), in [-1, 1]."""
    _match(params, c)
    with mp.workprec(_working_prec(params)):
        return float(mp.cos(_cos_argument(params, mp.mpf(c.phi))))


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
    phi = geometry.solve_phi(
        r,
        lambda t: n * geometry.f_at(r, t, np) - geometry.g_shift_at(r, nu, t, np),
        np.pi / 2 * np.arange(1, 2 * n),
    )
    return geometry.rho_at(r, phi, np)[::-1]


def pr_prefactor_log(params: ModelParams, c: PhiCoordinate) -> PRValue:
    """Amplitude of the oscillatory approximation, oscillation unset.

    log_magnitude collects 2/(2 pi)^(r/2), the (sin r phi/(n sin(r+1)phi))
    power, the exponential factor, |sin r phi / sin phi|^n and the inverse
    quartic root; sign_parity records (-1)^n from the negative base.
    """
    _match(params, c)
    if params.n < 1:
        raise DomainError("prefactor requires degree n >= 1")
    with mp.workprec(_working_prec(params)):
        lm = _log_prefactor(params, mp.mpf(c.phi))
    return PRValue(log_magnitude=float(lm), sign_parity=params.n % 2)


def pr_approx(params: ModelParams, c: PhiCoordinate) -> PRValue:
    """Full oscillatory approximation with the o(1) term dropped."""
    _match(params, c)
    if params.n < 1:
        raise DomainError("approximation requires degree n >= 1")
    with mp.workprec(_working_prec(params)):
        phi = mp.mpf(c.phi)
        lm = _log_prefactor(params, phi)
        osc = mp.cos(_cos_argument(params, phi))
        assembled = (-1) ** params.n * mp.e**lm * osc
    return PRValue(
        log_magnitude=float(lm),
        sign_parity=params.n % 2,
        oscillation=float(osc),
        assembled=assembled,
    )


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
        phi = mp.mpf(c.phi)
        x = geometry.rho_at(params.r, phi, mp)
        if not mp.isfinite(x):
            raise DomainError(f"evaluation point must be finite, got {x!r}")
        sign, man, exp, _ = x._mpf_
        lm = _log_prefactor(params, phi)
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
        ratio = mp.ldexp(value, exponent) / lcm / mp.e**lm
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
