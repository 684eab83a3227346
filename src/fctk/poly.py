"""Exact construction and evaluation of the hypergeometric polynomials.

The degree-n polynomial built here is

    F_n(x) = sum_k  binom(n, k) (-x)^k / ((k + nu_1)! ... (k + nu_r)!),

together with its monic companion P_n = (-1)^n prod_j (n + nu_j)! F_n.
Coefficients are kept as exact rationals: the alternating sum loses all
significance in fixed precision once n is moderately large and the
argument is of order n^r, so every downstream oracle evaluates through
the lcm-scaled integer coefficients, computed once per polynomial: root
isolation and contour checks by an exact homogeneous Horner over the
integers, normalized-polynomial plots by a fixed-point Horner with a
certified error bound that ends at the exact one when the bound cannot
be met.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import mpmath as mp

from .errors import DomainError


@dataclass(frozen=True)
class ModelParams:
    """Number of Ginibre factors r, dimension offsets nu, and degree n."""

    r: int
    nu: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise DomainError(f"r must be a positive integer, got {self.r!r}")
        nu = tuple(int(v) for v in self.nu)
        object.__setattr__(self, "nu", nu)
        if len(nu) != self.r:
            raise DomainError(f"nu must have length r={self.r}, got {nu}")
        if any(v < 0 for v in nu):
            raise DomainError(f"offsets nu must be nonnegative, got {nu}")
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"degree n must be a nonnegative integer, got {self.n!r}")

    @property
    def nu_sum(self) -> int:
        return sum(self.nu)


@dataclass(frozen=True)
class ExactPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[k] multiplies x^k; the leading coefficient is nonzero.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(A, L) with coeffs[k] == A[k] / L, L the lcm of the denominators."""
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (lcm // c.denominator) for c in self.coeffs), lcm


def build_f(params: ModelParams) -> ExactPolynomial:
    """Exact coefficients (-1)^k binom(n,k) / prod_j (k + nu_j)!."""
    n = params.n
    coeffs = []
    for k in range(n + 1):
        den = math.prod(math.factorial(k + v) for v in params.nu)
        coeffs.append(Fraction((-1) ** k * math.comb(n, k), den))
    return ExactPolynomial(tuple(coeffs))


def build_p(params: ModelParams) -> ExactPolynomial:
    """Monic companion (-1)^n prod_j (n + nu_j)! times build_f output."""
    scale = (-1) ** params.n * math.prod(
        math.factorial(params.n + v) for v in params.nu
    )
    f = build_f(params)
    return ExactPolynomial(tuple(c * scale for c in f.coeffs))


def rescale_arg(poly: ExactPolynomial, params: ModelParams) -> ExactPolynomial:
    """Substitute x -> n^r x: coefficient k is multiplied exactly by n^(r k)."""
    base = params.n ** params.r if params.n > 0 else 1
    return ExactPolynomial(
        tuple(c * base**k for k, c in enumerate(poly.coeffs))
    )


def eval_exact(poly: ExactPolynomial, x) -> Fraction:
    """Exact value at a rational x = N/D, with one reduction at the end.

    Horner over the integers gives sum_k A_k N^k D^(n-k), so the value is
    that integer over L D^n; no rounding anywhere.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    ints, lcm = poly.integer_form
    acc, den_pow = ints[-1], 1
    for c in reversed(ints[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return Fraction(acc, lcm * den_pow)


def eval_dyadic(a, num: int, shift: int) -> int:
    """Exact 2^(shift n) p(num / 2^shift) for p = sum_k a[k] x^k, integer a."""
    n = len(a) - 1
    acc = a[n]
    for k in range(n - 1, -1, -1):
        acc = acc * num + (a[k] << (shift * (n - k)))
    return acc


def _dyadic_parts(x) -> tuple[int, int]:
    """(M, e) with x == M 2^e, for an int, float, mpf or dyadic Fraction."""
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise DomainError(f"evaluation point must be finite, got {x!r}")
        sign, man, exp, _ = x._mpf_
        return (-man if sign else man), exp
    try:
        num, den = Fraction(x).as_integer_ratio()
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"evaluation point must be finite, got {x!r}") from exc
    if den & (den - 1):
        raise DomainError(f"evaluation point {x!r} is not dyadic")
    return num, 1 - den.bit_length()


def largest_term_exponent(poly: ExactPolynomial, x) -> int:
    """top = max_k (bitlen(A_k) + k D) with |x| < 2^D, (A, L) = poly.integer_form.

    Every term |A_k x^k| lies below 2^top, so a value that cancels c bits
    against its largest term is near 2^(top - c).
    """
    man, e = _dyadic_parts(x)
    d = abs(man).bit_length() + e
    return max(c.bit_length() + k * d for k, c in enumerate(poly.integer_form[0]) if c)


def eval_bounded(poly: ExactPolynomial, x, bits: int, accuracy: int) -> tuple[int, int, int]:
    """(v, err, g) with |L p(x) - v 2^g| <= err 2^g <= 2^-accuracy |L p(x)|.

    (A, L) is poly.integer_form and x = M 2^e a finite dyadic, such as an
    mpf.  Horner's rule runs in fixed point: with D = bitlen(M) + e, so
    |x| < 2^D, and g = max_k (bitlen(A_k) + k D) - bits, about log2 of
    the largest term A_k x^k less `bits`, the Horner partial sum
    b_k = sum_(j >= k) A_j x^(j - k) is kept as an integer in units of
    2^(g - k D), so one unit of it moves the result b_0 by less than
    2^g.  Each step floors twice (the product with M and the
    coefficient) and carries the earlier error times |M| / 2^bitlen(M)
    < 1, so the bound err, counted in those units, grows by at most 2
    per step and stays below 2 (n + 1).  The value is returned once
    |v| >= err (2^accuracy + 1); otherwise `bits`, which must be
    positive, doubles.  Once the granularity 2^g is as fine as that of
    the exact value, the exact integer Horner (eval_dyadic) ends the
    search with err = 0, so an exact dyadic root reads 0.
    """
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    ints = poly.integer_form[0]
    man, e = _dyadic_parts(x)
    n = len(ints) - 1
    if n == 0 or man == 0:
        return ints[0], 0, 0
    beta = abs(man).bit_length()
    d = beta + e
    top = largest_term_exponent(poly, x)
    shift = max(-e, 0)
    while top - bits > -n * shift:
        g = top - bits
        gk = g - n * d
        acc = ints[n] >> gk if gk > 0 else ints[n] << -gk
        err = 1 if gk > 0 else 0
        for c in reversed(ints[:-1]):
            gk += d
            acc = (acc * man >> beta) + (c >> gk if gk > 0 else c << -gk)
            err += 2 if gk > 0 else 1
        if abs(acc) >= err * ((1 << accuracy) + 1):
            return acc, err, g
        bits *= 2
    return eval_dyadic(ints, man << max(e, 0), shift), 0, -n * shift


def poly_to_json(params: ModelParams, poly: ExactPolynomial) -> str:
    """Serialize as {r, nu, n, coeffs} with coefficients as 'num/den' strings."""
    payload = {
        "r": params.r,
        "nu": list(params.nu),
        "n": params.n,
        "coeffs": [str(c) for c in poly.coeffs],
    }
    return json.dumps(payload)


def poly_from_json(text: str) -> tuple[ModelParams, ExactPolynomial]:
    data = json.loads(text)
    params = ModelParams(r=data["r"], nu=tuple(data["nu"]), n=data["n"])
    coeffs = tuple(Fraction(s) for s in data["coeffs"])
    return params, ExactPolynomial(coeffs)
