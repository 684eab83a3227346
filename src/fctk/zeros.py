"""Certified isolation of the positive real zeros and their statistics.

Every decision is proven: the coefficients span hundreds of orders of
magnitude after the n^r rescaling, so floating point cannot certify a
sign.  The sign at a dyadic point num / 2^shift comes from one kernel,
poly.eval_bounded at accuracy 0: a fixed-point Horner over the
lcm-scaled integer coefficients (ExactPolynomial.integer_form) with a
running error bound (Higham, "Accuracy and Stability of Numerical
Algorithms", 5.1), which returns a value v at least twice its bound, so
v has the exact sign, and which doubles its width until it does, ending
at the exact integer Horner, so an exact dyadic root reads 0.  A root's
refinement starts each binade of x at the width that last certified
there (_value).  The Descartes counts work on exact integer Taylor
shifts.  A bracket is the integer triple (lo, hi, shift) for the ends
lo / 2^shift and hi / 2^shift from the certificate to the refinement,
separators and zero estimates are dyadic pairs (num, shift) (_dyadic),
and only the returned ZeroEnclosure holds Fractions.

Certificate.  The oscillatory formula puts one zero of F_n(n^r x)
between consecutive extrema of its cosine approximant.  The hints of
isolate_zeros (asymptotics.zero_hints) are 2n - 1 increasing floats:
zero estimates at the even positions and such separators at the odd
ones.  The isolator takes the signs at 0, at every separator, rounded
to a short dyadic, and at the root bound 2^F; n strict sign changes of
a degree-n polynomial prove exactly one simple root in each of those n
gaps, so no square-free test and no Descartes count is needed.

Fallback.  A zero sign, a separator that is not finite or not
increasing, or fewer than n sign changes (offsets large against n move
the zeros near the hard edge x -> 0 past the separators) fall back to a
square-free test and Descartes bisection over dyadic intervals (reverse
the coefficients, Taylor-shift by one, count sign variations).  An
interval with count one encloses exactly one simple root, and count
subadditivity under splitting prunes the sibling when the left child
inherits the full count.  Positive roots are swept in doubling segments (0,1), (1,2),
(2,4), ... so the bracket never balloons to the Cauchy bound.
Neighbouring brackets share ends, and each distinct end is signed once.

Refinement.  Both paths hand the same thing to the refinement: integer
brackets with the certified values at their ends, each point signed
once with one shared table of widths, of which every root refines from
its own copy.  The refinement is quadratic interval refinement (J.
Abbott, "Quadratic interval refinement for real roots", 2006): secant
steps on a grid of 2^m dyadic cells, kept only where the certified
signs at a cell's ends differ, with a bisection step on a
miss.  The secant runs on the approximate values, which may pick
another cell than the exact ones would; that costs evaluations, never
a certificate.  A secant on a cell 2^-b as wide as the starting
bracket is accurate to about 2^-b of that cell, so m is capped at the
bits b gained so far, minus one.  Zero estimates (the even hints, where
the cosine approximant vanishes) pick only the first cell, among
2^6; no value is taken at an estimate, and a bad one costs evaluations,
never a certificate.  The bracket sequence does not depend on the tolerance,
which only decides where it stops.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .asymptotics import zero_hints
from .errors import DomainError, IsolationFailure, NotSquareFree
from .fuss_catalan import FussCatalanDist
from .poly import ExactPolynomial, ModelParams, build_f, eval_bounded, rescale_arg

DEFAULT_TOL = Fraction(1, 10**12)

_SQFREE_PRIMES = (2147483647, 2305843009213693951, 4611686018427387847)

# log2 of the number of cells among which a zero estimate picks the first
_FIRST_CELL_BITS = 6


@dataclass(frozen=True)
class ZeroEnclosure:
    """Dyadic bracket around exactly one root; lo == hi marks an exact root."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform probability measure on a point set, held as one sorted,
    read-only float64 array: the points given are copied and sorted once."""

    points: np.ndarray

    def __post_init__(self):
        points = np.sort(np.asarray(self.points, dtype=np.float64), axis=None)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# exact integer kernel

def _taylor_shift1(a: list[int]) -> list[int]:
    """Coefficients of p(x + 1); each pass is a C-level suffix accumulation."""
    a = list(a)
    n = len(a) - 1
    for k in range(n):
        tail = list(accumulate(reversed(a[k:])))
        a[k:] = reversed(tail)
    return a


def _scale_half(a: list[int]) -> list[int]:
    """Coefficients of 2^n p(x / 2)."""
    n = len(a) - 1
    return [c << (n - k) for k, c in enumerate(a)]


def _strip_content2(a: list[int]) -> list[int]:
    g = min((c & -c).bit_length() - 1 for c in a if c)
    return [c >> g for c in a] if g > 0 else a


def _sign_variations(a) -> int:
    v, prev = 0, 0
    for c in a:
        if c:
            s = 1 if c > 0 else -1
            if prev and s != prev:
                v += 1
            prev = s
    return v


def _count01(a: list[int]) -> int:
    """Descartes bound for the number of roots in the open unit interval."""
    return _sign_variations(_taylor_shift1(a[::-1]))


def _isolate01(a: list[int]) -> list[tuple[int, int, bool]]:
    """Isolate the roots of a in (0, 1), in increasing order.

    Returns cells (c, k, exact): the open interval (c, c + 1) / 2^k holds
    exactly one simple root, or, when exact, c / 2^k is a root.  Each node
    is walked as its left child, its midpoint, then its right child.
    """
    v0 = _count01(a)
    if v0 == 0:
        return []
    if v0 == 1:
        return [(0, 0, False)]
    cells: list[tuple[int, int, bool]] = []
    # a pending cell (c, k, exact), or a node (c, k, q, v) still to split
    stack: list[tuple] = [(0, 0, a, v0)]
    while stack:
        item = stack.pop()
        if len(item) == 3:
            cells.append(item)
            continue
        c, k, q, v = item
        left = _strip_content2(_scale_half(q))
        vl = _count01(left)
        parts: list[tuple] = []
        if vl:
            parts.append((2 * c, k + 1, False) if vl == 1 else (2 * c, k + 1, left, vl))
        # subadditivity: when vl == v the midpoint and right half hold no roots
        if vl != v:
            right = _taylor_shift1(left)
            if right[0] == 0:
                if right[1] == 0:
                    raise NotSquareFree(
                        f"dyadic point {(2 * c + 1)}/2^{k + 1} is a multiple root"
                    )
                parts.append((2 * c + 1, k + 1, True))
                right.pop(0)
            vr = _count01(right)
            if vr:
                parts.append(
                    (2 * c + 1, k + 1, False) if vr == 1 else (2 * c + 1, k + 1, right, vr)
                )
        stack.extend(reversed(parts))
    return cells


def _gcd_degree_mod_p(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over GF(p); requires p not dividing both leads."""
    am = [c % p for c in a]
    bm = [c % p for c in b]

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    am, bm = strip(am), strip(bm)
    while bm:
        inv = pow(bm[-1], p - 2, p)
        while len(am) >= len(bm):
            factor = am[-1] * inv % p
            off = len(am) - len(bm)
            for i, c in enumerate(bm):
                am[off + i] = (am[off + i] - factor * c) % p
            am = strip(am)
            if not am:
                break
        am, bm = bm, am
    return len(am) - 1


def _square_free(a: list[int]) -> bool:
    """Certify gcd(p, p') constant via modular gcds, exact Euclid on doubt."""
    da = [k * c for k, c in enumerate(a)][1:]
    for p in _SQFREE_PRIMES:
        if a[-1] % p and da[-1] % p:
            if _gcd_degree_mod_p(a, da, p) == 0:
                return True
    # all prescreen primes were unlucky (or a factor truly repeats):
    # settle it with plain Euclid over the rationals
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in da]
    while fb:
        while len(fa) >= len(fb):
            q = fa[-1] / fb[-1]
            off = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[off + i] -= q * c
            fa.pop()
        while fa and fa[-1] == 0:
            fa.pop()
        fa, fb = fb, fa
    return len(fa) <= 1


def _fujiwara_exponent(a: list[int]) -> int:
    """F with every root of a below 2^(F - 1), from coefficient bit lengths."""
    n = len(a) - 1
    an_bits = abs(a[-1]).bit_length()
    return max(
        2,
        2 + max(
            (abs(c).bit_length() - an_bits) // (n - k) + 1
            for k, c in enumerate(a[:-1])
            if c
        ),
    )


def _first_width(degree: int) -> int:
    """Bits of the first fixed-point pass in a binade: 0.8 n + 128.

    A pass certifies a sign once its width exceeds the cancellation of
    the value against its largest term by about log2(4 (n + 1)) bits.
    That cancellation grows about linearly in n; over every sign of
    isolate_zeros with the hints of zero_hints at tol 1e-12 (nu = 0),
    median / max: 168/265 bits at r = 1 n = 100, 106/482 at r = 3
    n = 100, 383/1978 at r = 3 n = 400.  This width falls short for 25 %,
    0.5 % and 36 % of those signs, but each root keeps the width that
    last certified in each binade (_value), and then 17, 3 and 8 passes
    of about 950, 1 000 and 3 800 signs double.
    """
    return 4 * degree // 5 + 128


def _value(poly: ExactPolynomial, widths: dict, num: int, shift: int) -> tuple[int, int]:
    """(v, g): v 2^g has the sign of L p(num / 2^shift), and v == 0 only at a root.

    One certified sign: poly.eval_bounded at accuracy 0 returns
    |v| >= 2 err, and |L p(x) - v 2^g| <= err 2^g, so v 2^g has the sign
    of the value and errs by at most half its own size; an exact root
    ends at the exact Horner and reads 0.  `widths` maps a binade d
    (2^(d-1) <= x < 2^d) to one width, the one that last certified
    there, poly.term_top(d) - g; a binade not in it starts at
    _first_width.
    """
    d = num.bit_length() - shift
    bits = widths.get(d) or _first_width(poly.degree)
    v, err, g = eval_bounded(poly, num, shift, bits, 0)
    if err:
        widths[d] = poly.term_top(d) - g
    return v, g


def _dyadic(x: float):
    """(num, shift) with x == num / 2^shift for a finite float x, else None."""
    if not math.isfinite(x):
        return None
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def _seeded_brackets(poly: ExactPolynomial, widths: dict, separators, fujiwara: int):
    """One bracket per root from certified signs at 0, the separators and 2^F.

    Returns ((lo, hi, shift), ((v, g) at lo, (v, g) at hi)) per gap with
    a strict sign change, or None unless exactly n gaps change sign: n
    sign changes of a degree-n polynomial prove one simple root in each
    of those gaps and none elsewhere.  Each double separator is first
    rounded to a multiple of a power of two at most 1/8 of the gaps
    beside it: it moves by 1/16 of a gap at most, and the signs at it and
    at the refinement's grid points, whose cost grows with their bit
    length, stay cheap.  A rounded separator is exactly num / 2^shift
    (_dyadic), and each bracket puts its ends on the larger of their two
    shifts.
    """
    n = poly.degree
    gaps = np.diff(separators, prepend=0.0)
    near = np.minimum(gaps, np.append(gaps[1:], np.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a gap <= 0 or a separator that is not finite yields nan: no certificate
        step = np.exp2(np.floor(np.log2(near / 8)))
        rounded = np.round(separators / step) * step
    points = [(0, 0), *map(_dyadic, rounded), (1 << fujiwara, 0)]
    if None in points or any(a << t >= b << s for (a, s), (b, t) in zip(points, points[1:])):
        return None
    values = [_value(poly, widths, num, shift) for num, shift in points]
    if any(v == 0 for v, _ in values):
        return None
    brackets = []
    for (a, s), (b, t), u, w in zip(points, points[1:], values, values[1:]):
        if (u[0] > 0) != (w[0] > 0):
            shift = max(s, t)
            brackets.append(((a << (shift - s), b << (shift - t), shift), (u, w)))
    return brackets if len(brackets) == n else None


def _descartes_brackets(poly: ExactPolynomial, widths: dict, fujiwara: int):
    """One bracket per root by Descartes bisection, in order, with its end values.

    Returns ((lo, hi, shift), ((v, g) at lo, (v, g) at hi)) per root, as
    _seeded_brackets does; the ends are lo / 2^shift and hi / 2^shift,
    and lo == hi is an exact root, whose values are (0, 0) unsigned.
    Raises IsolationFailure unless there are degree many.  The segments
    are swept left to right and each one's cells come in order
    (_isolate01), so an exact root comes before a bracket that starts at
    it.  Neighbouring brackets share ends, so every distinct end is
    signed once, with `widths`, keyed on the largest shift of the list;
    that changes no value, since _value and eval_bounded reduce the point.
    """
    a = list(poly.integer_form[0])
    n = len(a) - 1
    brackets: list[tuple[int, int, int]] = []

    def emit(base: int, span: int, cells):
        # the cell (c, k) of the segment (base, base + span) is
        # base + span (c, c + 1) / 2^k
        for c, k, exact in cells:
            lo = (base << k) + c * span
            brackets.append((lo, lo if exact else lo + span, k))

    emit(0, 1, _isolate01(a))
    j = 0
    while len(brackets) < n and j <= fujiwara:
        base = 1 << j
        seg = [c * base**k for k, c in enumerate(a)] if j else list(a)
        seg = _taylor_shift1(seg)  # roots in (0,1) <-> roots of a in (base, 2 base)
        if seg[0] == 0:
            brackets.append((base, base, 0))
            while seg[0] == 0:
                seg.pop(0)
        emit(base, base, _isolate01(_strip_content2(seg)))
        j += 1
    if len(brackets) != n:
        raise IsolationFailure(f"found {len(brackets)} positive simple roots for degree {n}")
    top = max(s for _, _, s in brackets)
    sign = functools.cache(lambda num: _value(poly, widths, num, top))
    exact = (0, 0), (0, 0)
    return [
        ((lo, hi, s), exact if lo == hi else (sign(lo << (top - s)), sign(hi << (top - s))))
        for lo, hi, s in brackets
    ]


def _exact_root(num: int, shift: int) -> ZeroEnclosure:
    x = Fraction(num, 1 << shift)
    return ZeroEnclosure(x, x)


def _refine(
    poly: ExactPolynomial, widths: dict, bracket, ends, estimate, tol: Fraction
) -> ZeroEnclosure:
    """Shrink a bracket (lo, hi, shift) around one simple root below tol (QIR).

    The bracket's ends are lo / 2^shift and hi / 2^shift, and lo == hi is
    an exact root, returned as it is.  `ends` holds the certified values
    (v, g) at the two ends, as both bracket sources return them, and
    `estimate` is a zero estimate (num, shift) for num / 2^shift, or None.

    Quadratic interval refinement: the bracket is cut into N = 2^m equal
    dyadic cells, a secant through the values at the bracket's ends picks
    the cell the root should be in, and the signs at that cell's two ends
    keep it or reject it (a bisection step, m halved).  A secant through
    the ends of a cell 2^-b as wide as the starting bracket is accurate
    only to about 2^-b of that cell, so after a kept cell m doubles but
    is capped at the bits b gained so far, minus one.  An estimate inside
    the bracket replaces the first secant: it picks the grid point
    nearest to it among N = 2^_FIRST_CELL_BITS cells, ties to even, and
    the sign there picks the cell on its side.  No value is taken at the
    estimate itself.

    Every sign is certified (_value); the values only approximate, so
    the secant may pick another cell than the exact values would, which
    costs evaluations, never a certificate.  The value at each end is
    reused.  `widths` is this root's own copy of the per-binade widths, so
    the bracket sequence does not depend on tol: tol only says where it
    stops, and a smaller tol refines the same brackets further.  A
    bracket at 0 is refined until it leaves 0, so the enclosure of a
    positive root below tol still has lo > 0.

    The root is interior, but a Descartes bracket may end on a dyadic
    root that is reported on its own.  Such a bracket is bisected until
    neither end is a root, with the sign just inside a zero lower end
    read from the derivative there (the roots are simple); only a new
    interior probe can return an exact root.
    """
    lo_n, hi_n, s = bracket
    if lo_n == hi_n:
        return _exact_root(lo_n, s)
    (v_lo, g_lo), (v_hi, g_hi) = ends
    if v_lo:
        pos_lo = v_lo > 0
    else:
        ints = poly.integer_form[0]
        derivative = ExactPolynomial([k * c for k, c in enumerate(ints)][1:])
        pos_lo = _value(derivative, {}, lo_n, s)[0] > 0
    m, gained = 2, 0
    tol_num, tol_den = tol.numerator, tol.denominator
    while v_lo == 0 or v_hi == 0 or lo_n == 0 or (hi_n - lo_n) * tol_den > tol_num << s:
        if v_lo and v_hi:
            cell = hi_n - lo_n
            j = None
            if estimate is not None:
                # the grid point nearest to the estimate, if it is inside:
                # j = round(2^m off / span) on the finer of the two shifts
                e_num, e_shift = estimate
                t = max(s, e_shift)
                off = (e_num << (t - e_shift)) - (lo_n << (t - s))
                span = cell << (t - s)
                if 0 <= off <= span:
                    m = _FIRST_CELL_BITS
                    j, rem = divmod(off << m, span)
                    if 2 * rem > span or (2 * rem == span and j & 1):
                        j += 1
                estimate = None
            if j is None:
                # j = round(2^m v_lo / (v_lo - v_hi)), the secant's cell
                # boundary, from the values aligned to the finer unit 2^g
                g = min(g_lo, g_hi)
                a, b = v_lo << (g_lo - g), v_hi << (g_hi - g)
                num, den = a << m, a - b
                if den < 0:
                    num, den = -num, -den
                j = (2 * num + den) // (2 * den)
            lo_f, hi_f, shift = lo_n << m, hi_n << m, s + m
            if j == (1 << m):
                j -= 1  # the cell [N - 1, N] ends at the known upper end
            x0 = lo_f + j * cell
            v0, g0 = (v_lo, g_lo) if x0 == lo_f else _value(poly, widths, x0, shift)
            if v0 == 0:
                return _exact_root(x0, shift)
            # test the cell on the root's side of x0, reusing an end's value
            x1 = x0 + cell if (v0 > 0) == pos_lo else x0 - cell
            if x1 == lo_f:
                v1, g1 = v_lo, g_lo
            elif x1 == hi_f:
                v1, g1 = v_hi, g_hi
            else:
                v1, g1 = _value(poly, widths, x1, shift)
            if v1 == 0:
                return _exact_root(x1, shift)
            if (v0 > 0) != (v1 > 0):
                if x1 < x0:
                    x0, x1, v0, g0, v1, g1 = x1, x0, v1, g1, v0, g0
                lo_n, hi_n, s = x0, x1, shift
                v_lo, g_lo, v_hi, g_hi = v0, g0, v1, g1
                gained += m
                m = max(2, min(2 * m, gained - 1))
                continue
            m = max(2, m // 2)
        mid, s = lo_n + hi_n, s + 1
        gained += 1
        v_mid, g_mid = _value(poly, widths, mid, s)
        if v_mid == 0:
            return _exact_root(mid, s)
        lo_n, hi_n = 2 * lo_n, 2 * hi_n
        if (v_mid > 0) == pos_lo:
            lo_n, v_lo, g_lo = mid, v_mid, g_mid
        else:
            hi_n, v_hi, g_hi = mid, v_mid, g_mid
    return ZeroEnclosure(Fraction(lo_n, 1 << s), Fraction(hi_n, 1 << s))


def isolate_zeros(poly: ExactPolynomial, tol=DEFAULT_TOL, *, hints=None) -> list[ZeroEnclosure]:
    """Disjoint enclosures of all positive roots, exactly degree many.

    `hints`, such as asymptotics.zero_hints, are 2n - 1 increasing floats
    for a degree-n polynomial, one expected near each root at the even
    positions and one between consecutive roots at the odd positions.
    The odd ones are separators: when the certified signs at 0, at the
    separators and at the root bound 2^F change sign n times, they prove
    the roots (_seeded_brackets); otherwise, or without hints, Descartes
    bisection isolates them.  The even ones are zero estimates, which
    only choose where the refinement of each bracket starts (_refine):
    an entry that is not finite or lies outside its bracket is ignored,
    and no hint decides anything.  Raises DomainError when tol is not a
    positive finite rational or when there are not 2n - 1 hints,
    NotSquareFree when the polynomial shares a factor with its
    derivative, IsolationFailure when the positive-root count differs
    from the degree (both contradict the expected simple-positive-root
    structure and must stop the caller, never be absorbed silently).
    """
    try:
        tol = Fraction(tol)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"tol must be a finite rational, got {tol!r}") from exc
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    n = poly.degree
    if hints is None:
        separators, estimates = None, [None] * n
    else:
        hints = np.asarray(hints, dtype=float)
        count = max(2 * n - 1, 0)
        if hints.shape != (count,):
            raise DomainError(f"need {count} hints for degree {n}, got shape {hints.shape}")
        separators, estimates = hints[1::2], [_dyadic(x) for x in hints[0::2]]
    if n == 0:
        return []
    a = poly.integer_form[0]
    if a[0] == 0:
        raise IsolationFailure("zero constant term: x = 0 is a root, not positive")
    fujiwara = _fujiwara_exponent(a)
    widths: dict[int, int] = {}
    brackets = (
        None if separators is None
        else _seeded_brackets(poly, widths, separators, fujiwara)
    )
    if brackets is None:
        if not _square_free(a):
            raise NotSquareFree("gcd with the derivative is nonconstant")
        brackets = _descartes_brackets(poly, widths, fujiwara)
    return [
        _refine(poly, dict(widths), bracket, ends, estimate, tol)
        for (bracket, ends), estimate in zip(brackets, estimates)
    ]


# ---------------------------------------------------------------------------
# measures built from the zeros

def rescaled_zeros(params: ModelParams, tol=DEFAULT_TOL) -> list[ZeroEnclosure]:
    """Enclosures of the zeros of F_n(n^r x), with the hints of zero_hints."""
    rescaled = rescale_arg(build_f(params), params)
    return isolate_zeros(rescaled, tol, hints=zero_hints(params))


def rescaled_zero_measure(params: ModelParams, tol=DEFAULT_TOL) -> EmpiricalMeasure:
    """Zero counting measure of F_n(n^r x): enclosure midpoints, mass 1/n each."""
    return EmpiricalMeasure([float(e.mid) for e in rescaled_zeros(params, tol)])


def ks_distance(m: EmpiricalMeasure, d: FussCatalanDist) -> float:
    """sup |empirical - cdf|, checked one-sided at every jump point."""
    if m.n == 0:
        return 0.0
    c = d.cdf(m.points)
    below = np.arange(m.n) / m.n
    above = np.arange(1, m.n + 1) / m.n
    return float(max(np.abs(above - c).max(), np.abs(below - c).max()))
