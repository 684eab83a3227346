"""Exact construction and evaluation of the hypergeometric polynomials.

The degree-n polynomial built here is

    F_n(x) = sum_k  binom(n, k) (-x)^k / ((k + nu_1)! ... (k + nu_r)!),

together with its monic companion P_n = (-1)^n prod_j (n + nu_j)! F_n.
A polynomial is stored in one form, its lcm-scaled integer coefficients
(ExactPolynomial.integer_form): the alternating sum loses all
significance in fixed precision once n is moderately large and the
argument is of order n^r, so every downstream oracle evaluates through
them.  build_f and rescale_arg build that integer form directly from
the factorial ratios, with no Fraction per coefficient.  Exact values
come from one homogeneous Horner over the integers (_horner, behind
eval_exact).  Root-isolation signs and
normalized-polynomial plots come from one fixed-point Horner with a
certified error bound (eval_bounded), at a dyadic point given as the
integer pair (num, shift) for num / 2^shift, over floored coefficients
that the polynomial memoizes per binade of the point; it ends at the
exact Horner when the bound cannot be met.  The monic P_k also satisfy
an (r + 2)-term recurrence in k with integer coefficients
(recurrence_coefficients), which zeros runs in doubles to predict the
roots that eval_bounded then certifies.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

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
        try:
            nu = tuple(operator.index(v) for v in self.nu)
        except TypeError:
            raise DomainError(f"offsets nu must be integers, got {self.nu!r}") from None
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


class ExactPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored only as its integer form (A, L): coeffs[k] == A[k] / L
    multiplies x^k, L > 0 is the lcm of the reduced denominators, and the
    leading coefficient is nonzero.  `coeffs` is a view derived from it
    on first use, so a polynomial built from its integer form (build_f,
    rescale_arg) makes no Fraction until `coeffs` is read.  The
    polynomial is immutable; two are equal when their integer forms are,
    which is when their coefficients are.
    """

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if not coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")
        lcm = math.lcm(*(c.denominator for c in coeffs))
        ints = (c.numerator * (lcm // c.denominator) for c in coeffs)
        self.__dict__["integer_form"] = (tuple(ints), lcm)

    @classmethod
    def _from_integer_form(cls, ints, lcm: int) -> ExactPolynomial:
        """sum_k ints[k] x^k / lcm, for lcm > 0 with gcd(lcm, *ints) == 1 and
        ints[-1] != 0, so that lcm is the lcm of the reduced denominators."""
        poly = cls.__new__(cls)
        poly.__dict__["integer_form"] = (tuple(ints), lcm)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.integer_form == other.integer_form

    def __hash__(self):
        return hash(self.integer_form)

    def __repr__(self):
        return f"ExactPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.integer_form[0]) - 1

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        ints, lcm = self.integer_form
        return tuple(Fraction(c, lcm) for c in ints)

    def term_top(self, d: int) -> int:
        """top = max_k (bitlen(A_k) + k d), (A, L) = integer_form, memoized per d.

        Every term A_k x^k with |x| < 2^d lies below 2^top.
        """
        top = self._tops.get(d)
        if top is None:
            top = self._tops[d] = max(
                c.bit_length() + k * d for k, c in enumerate(self.integer_form[0]) if c
            )
        return top

    @cached_property
    def _tops(self) -> dict:
        return {}

    @cached_property
    def _tables(self) -> dict:
        # binade d -> (g, truncated leading coefficient, the rest, err); see
        # _truncated_coefficients
        return {}


def build_f(params: ModelParams) -> ExactPolynomial:
    """Exact coefficients (-1)^k binom(n,k) / prod_j (k + nu_j)!.

    Built as its integer form: with L = prod_j (n + nu_j)!, coefficient k
    is A_k / L for the integer A_k = (-1)^k binom(n,k) prod_j (n + nu_j)! /
    (k + nu_j)!, and A_n = (-1)^n, so L is already the lcm of the reduced
    denominators.
    """
    n = params.n
    ints = [0] * (n + 1)
    ratio = 1  # prod_j (n + nu_j)! / (k + nu_j)!
    for k in range(n, -1, -1):
        c = math.comb(n, k) * ratio
        ints[k] = -c if k & 1 else c
        ratio *= math.prod(k + v for v in params.nu)
    lcm = math.prod(math.factorial(n + v) for v in params.nu)
    return ExactPolynomial._from_integer_form(ints, lcm)


def build_p(params: ModelParams) -> ExactPolynomial:
    """Monic companion (-1)^n prod_j (n + nu_j)! times build_f output.

    The factor is (-1)^n times the L of build_f's integer form, so the
    coefficients are (-1)^n A_k, all integers.
    """
    ints, _ = build_f(params).integer_form
    sign = -1 if params.n & 1 else 1
    return ExactPolynomial._from_integer_form([sign * c for c in ints], 1)


def _top_coefficients(nu, k: int, count: int) -> list[int]:
    """The coefficients of x^k, ..., x^(k - count + 1) of the monic P_k.

    The coefficient of x^(k - m) is (-1)^m binom(k, m) prod_j (k + nu_j)! /
    (k - m + nu_j)!, zero once m > k; each follows from the one before.
    """
    out, a = [1], 1
    for m in range(1, count):
        a = -(a * (k - m + 1) // m) * math.prod(k + v - m + 1 for v in nu)
        out.append(a)
    return out


def recurrence_coefficients(params: ModelParams) -> list[tuple[int, ...]]:
    """The integers b_(k,j), k < n, of x P_k = P_(k+1) + sum_(j=0..r) b_(k,j) P_(k-j).

    The monic P_k of build_p are multiple orthogonal polynomials on the
    step line (Kuijlaars & Zhang, CMP 2014), so they satisfy this
    (r + 2)-term recurrence (Van Assche, JAT 2011), with b_(k,j) = 0 for
    j > k.  Row k is read off the top r + 2 coefficients, with no
    polynomial build: with a_(k,m) the coefficient of x^(k-m) of P_k
    (_top_coefficients), the powers x^k, ..., x^(k-r) of the recurrence
    give the unit lower-triangular system

        sum_(j=0..m-1) b_(k,j) a_(k-j, m-1-j) = a_(k,m) - a_(k+1,m),  m = 1..r+1,

    solved by forward substitution over the integers.  At r = 1 this is
    b_(k,0) = 2k + nu + 1 and b_(k,1) = k (k + nu).
    """
    r, nu, n = params.r, params.nu, params.n
    tops = [_top_coefficients(nu, k, r + 2) for k in range(n + 1)]
    rows = []
    for k in range(n):
        b = []
        for m in range(1, min(r, k) + 2):
            rhs = tops[k][m] - tops[k + 1][m]
            b.append(rhs - sum(b[j] * tops[k - j][m - 1 - j] for j in range(m - 1)))
        rows.append(tuple(b) + (0,) * (r + 1 - len(b)))
    return rows


def rescale_arg(poly: ExactPolynomial, params: ModelParams) -> ExactPolynomial:
    """Substitute x -> n^r x: coefficient k is multiplied exactly by n^(r k).

    On the integer form (A, L) the coefficients become A_k b^k / L with
    b = n^r, and their common factor h with L is divided out, so that L/h
    is again the lcm of the reduced denominators.  h divides L and the top
    term A_n b^n; once h divides b^k, every later term is a multiple of
    it, so only the terms below that k take a gcd and an exact division.
    """
    base = params.n ** params.r if params.n > 0 else 1
    ints, lcm = poly.integer_form
    n = len(ints) - 1
    h = math.gcd(lcm, ints[n] * base**n)
    head, power = [], 1
    for c in ints:
        if power % h == 0:
            break
        head.append(c * power)
        h = math.gcd(h, head[-1])
        power *= base
    scaled = [c // h for c in head]
    power //= h
    for c in ints[len(head):]:
        scaled.append(c * power)
        power *= base
    return ExactPolynomial._from_integer_form(scaled, lcm // h)


def _horner(ints, num: int, den: int) -> tuple[int, int]:
    """(sum_k A_k num^k den^(n-k), den^n) for A = ints: Horner over the integers."""
    acc, den_pow = ints[-1], 1
    for c in reversed(ints[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return acc, den_pow


def eval_exact(poly: ExactPolynomial, x) -> Fraction:
    """Exact value at a rational x = N/D, with one reduction at the end.

    Horner over the integers gives sum_k A_k N^k D^(n-k), so the value is
    that integer over L D^n; no rounding anywhere.  A point with no
    finite rational form (nan, inf) raises DomainError.
    """
    try:
        x = Fraction(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"evaluation point must be a finite rational, got {x!r}") from exc
    ints, lcm = poly.integer_form
    acc, den_pow = _horner(ints, x.numerator, x.denominator)
    return Fraction(acc, lcm * den_pow)


def _truncated_coefficients(poly: ExactPolynomial, d: int, g: int):
    """(g, A_n, [A_(n-1), ..., A_0], err), each A_k in units of 2^(g - k d).

    A_k >> (g - k d), or shifted left when g - k d <= 0, as eval_bounded's
    fixed-point Horner adds them, with the error bound err of one pass in
    units of 2^g.  The table depends only on the binade d of the point and
    on g, so the polynomial keeps the last one per binade and replaces it
    when g changes: at most one table per binade, each of n + 1 integers
    about as long as the Horner accumulator.
    """
    ints = poly.integer_form[0]
    n = len(ints) - 1
    shifts = range(g - n * d, g + d, d) if d else [g] * (n + 1)
    terms = [c >> s if s > 0 else c << -s for c, s in zip(reversed(ints), shifts)]
    # a unit for each of the n products and each coefficient that is
    # floored, those with a positive shift (the shifts are monotone)
    floored = n + 1 - bisect_right(shifts if d >= 0 else shifts[::-1], 0)
    table = poly._tables[d] = (g, terms[0], terms[1:], n + floored)
    return table


def eval_bounded(
    poly: ExactPolynomial, num: int, shift: int, bits: int, accuracy: int
) -> tuple[int, int, int]:
    """(v, err, g) with |L p(x) - v 2^g| <= err 2^g <= 2^-accuracy |L p(x)|.

    (A, L) is poly.integer_form and x = num / 2^shift, for any integers
    num and shift; the point is reduced first.  Horner's rule runs in
    fixed point: with M the reduced numerator and D = bitlen(M) - shift,
    so |x| < 2^D, and g = max_k (bitlen(A_k) + k D) - bits, about log2 of
    the largest term A_k x^k less `bits`, the Horner partial sum
    b_k = sum_(j >= k) A_j x^(j - k) is kept as an integer in units of
    2^(g - k D), so one unit of it moves the result b_0 by less than
    2^g.  Each step floors twice (the product with M and the
    coefficient) and carries the earlier error times |M| / 2^bitlen(M)
    < 1, so the bound err, counted in those units, grows by at most 2
    per step and stays below 2 (n + 1).  The value is returned once
    |v| >= err (2^accuracy + 1); otherwise `bits`, which must be
    positive, doubles.  Once the granularity 2^g is as fine as that of
    the exact value, 2^(-n shift) for the reduced point, the exact
    integer Horner ends the search with err = 0, so an exact dyadic root
    reads 0.

    The floored coefficients depend only on (D, g), and the polynomial
    memoizes them: the last table per binade D, replaced when g changes
    (_truncated_coefficients), and the top exponent per D
    (ExactPolynomial.term_top).  The memo lives and dies with the
    polynomial, and every returned triple is the one a fresh polynomial
    gives.
    """
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    ints = poly.integer_form[0]
    n = len(ints) - 1
    if n == 0 or num == 0:
        return ints[0], 0, 0
    if shift > 0 and not num & 1:
        trailing = min(shift, (num & -num).bit_length() - 1)
        num, shift = num >> trailing, shift - trailing
    beta = abs(num).bit_length()
    d = beta - shift
    top = poly._tops.get(d)
    if top is None:
        top = poly.term_top(d)
    exact_g = -n * shift if shift > 0 else 0
    while top - bits > exact_g:
        g = top - bits
        table = poly._tables.get(d)
        if table is None or table[0] != g:
            table = _truncated_coefficients(poly, d, g)
        _, acc, rest, err = table
        for t in rest:
            acc = (acc * num >> beta) + t
        if abs(acc) >= err * ((1 << accuracy) + 1):
            return acc, err, g
        bits *= 2
    return _horner(ints, num << max(-shift, 0), 1 << max(shift, 0))[0], 0, exact_g


def poly_to_json(params: ModelParams, poly: ExactPolynomial) -> str:
    """Serialize as {r, nu, n, coeffs} with coefficients as 'num/den' strings."""
    payload = {
        "r": params.r,
        "nu": list(params.nu),
        "n": params.n,
        "coeffs": [str(c) for c in poly.coeffs],
    }
    return json.dumps(payload)
