"""Exact construction and evaluation of the hypergeometric polynomials.

The degree-n polynomial built here is

    F_n(x) = sum_k  binom(n, k) (-x)^k / ((k + nu_1)! ... (k + nu_r)!),

together with its monic companion P_n = (-1)^n prod_j (n + nu_j)! F_n.
Coefficients are kept as exact rationals: the alternating sum loses all
significance in fixed precision once n is moderately large and the
argument is of order n^r, so every downstream oracle (root isolation,
contour quadrature, normalized-polynomial plots) evaluates through the
exact integer kernel here: the lcm-scaled integer coefficients, computed
once per polynomial, and a homogeneous Horner over the integers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import mpmath as mp

DEFAULT_PRECISION_CAP_BITS = 16384


def precision_cap_bits() -> int:
    """Big-float precision cap in bits; FCTK_PRECISION_CAP overrides."""
    return int(os.environ.get("FCTK_PRECISION_CAP", DEFAULT_PRECISION_CAP_BITS))


@dataclass(frozen=True)
class ModelParams:
    """Number of Ginibre factors r, dimension offsets nu, and degree n."""

    r: int
    nu: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        nu = tuple(int(v) for v in self.nu)
        object.__setattr__(self, "nu", nu)
        if len(nu) != self.r:
            raise ValueError(f"nu must have length r={self.r}, got {nu}")
        if any(v < 0 for v in nu):
            raise ValueError(f"offsets nu must be nonnegative, got {nu}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"degree n must be a nonnegative integer, got {self.n!r}")

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
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

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


def _to_fraction(x) -> Fraction:
    """Exact rational value of x (int, Fraction, float, or mpmath mpf)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = mp.mpf(x)._mpf_
        if man == 0:
            if x == 0:
                return Fraction(0)
            raise ValueError(f"cannot convert non-finite value {x!r}")
        q = Fraction(man, 1) * Fraction(2) ** exp
        return -q if sign else q
    raise TypeError(f"unsupported evaluation point type {type(x)!r}")


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
