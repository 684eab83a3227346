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

Certificate.  The oscillatory formula puts one zero of F_n(n^r x) near
each zero of its cosine approximant.  The hints of isolate_zeros
(asymptotics.zero_hints) are n increasing zero estimates e, and the
separators between consecutive roots are the exact dyadic midpoints of
consecutive estimates, by integer shifts alone.  The certificate signs
one increasing list of dyadic points: 0, the separators, the ends of
each window e -+ 2^-44 that lies strictly inside its gap between them,
and the root bound 2^F.  Each point that signs 0 and each pair of
neighbours with opposite signs holds a root of its own (_sign_changes),
so n of them prove exactly one simple root in each for a degree-n
polynomial, with no square-free test and no Descartes count.  A window
that holds its root is the root's bracket, and one that misses keeps the
part of the gap its signs prove.  The polished estimates of
rescaled_zeros (_predicted_zeros) hit almost every window, so a
separator rarely ends a bracket, and rounding it saves nothing.

Fallback.  Estimates that are not finite and strictly increasing, or
fewer than n proven roots, fall back to a square-free test and Descartes
bisection over dyadic intervals (reverse the coefficients, Taylor-shift
by one, count sign variations).  An interval with count one encloses
exactly one simple root, and count subadditivity under splitting prunes
the sibling when the left child inherits the full count.  Positive roots
are swept in doubling segments (0,1), (1,2), (2,4), ... so the bracket
never balloons to the Cauchy bound.  A bracket's ends and the window of
its root inside it form a point list for the same _sign_changes.  One
memo per call signs each distinct point once (_signer), so neither a
shared bracket end nor a window the certificate signed is signed again.

Refinement.  Both paths hand the same thing to the refinement: integer
brackets with the certified values at their ends, signed with one shared
table of widths, of which every root refines from its own copy.  It is
quadratic interval refinement (J. Abbott, "Quadratic interval
refinement for real roots", 2006): secant steps on a grid of 2^m dyadic
cells, kept only where the certified signs at a cell's ends differ, with
a bisection step on a miss, and m capped by the bits gained so far
(_refine), of which a hit window brings those it gained over its gap.  A
secant on approximate values may pick the wrong cell, which, like a bad
estimate, costs signs, never a certificate.  Neither the brackets nor
their refinement depend on the tolerance, which only decides where it
stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .asymptotics import zero_hints
from .errors import DomainError, IsolationFailure, NotSquareFree
from .fuss_catalan import FussCatalanDist
from .poly import (
    ExactPolynomial,
    ModelParams,
    build_f,
    eval_bounded,
    recurrence_coefficients,
    rescale_arg,
)

DEFAULT_TOL = Fraction(1, 10**12)

_SQFREE_PRIMES = (2147483647, 2305843009213693951, 4611686018427387847)

# each zero estimate e is signed at its window ends e -+ 2^-_WINDOW_BITS
_WINDOW_BITS = 44
# Newton passes of the zero predictor (_predicted_zeros)
_NEWTON_PASSES = 5
# the values of an exact root lo == hi, which are not signed
_UNSIGNED = (0, 0), (0, 0)


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
    rescaled_zeros at tol 1e-12 (nu = 0), median / max: 177/262 bits at
    r = 1 n = 100, 112/195 at r = 3 n = 100, 380/693 at r = 3 n = 400.
    This width falls short for 32 %, 0 % and 36 % of those signs, but
    each root keeps the width that last certified in each binade
    (_value), and then 3, 0 and 8 passes of 301, 301 and 1 201 signs
    double.
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


def _aligned(p, q) -> tuple[int, int, int]:
    """(a, b, t) with p = a / 2^t and q = b / 2^t for dyadic pairs (num, shift)."""
    t = max(p[1], q[1])
    return p[0] << (t - p[1]), q[0] << (t - q[1]), t


def _below(p, q) -> bool:
    """p < q for dyadic pairs (num, shift)."""
    return p[0] << q[1] < q[0] << p[1]


def _window(e):
    """The ends (num, shift) of e -+ 2^-_WINDOW_BITS for a dyadic pair e, else None."""
    if e is None:
        return None
    mid, half, t = _aligned(e, (1, _WINDOW_BITS))
    return (mid - half, t), (mid + half, t)


def _window_gain(lo, hi) -> int:
    """The bits a window gains over the gap lo < hi, floor(log2((hi - lo) / 2^-43))."""
    a, b, t = _aligned(lo, hi)
    return (b - a).bit_length() - 2 - t + _WINDOW_BITS


def _signer(poly: ExactPolynomial, widths: dict):
    """sign(num, shift): _value at num / 2^shift, memoized on the reduced
    point, so a point that two brackets share or that both the certificate
    and the fallback reach is signed once."""
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def sign(num: int, shift: int) -> tuple[int, int]:
        k = min(shift, (num & -num).bit_length() - 1) if num else shift
        if (key := (num >> k, shift - k)) not in memo:
            memo[key] = _value(poly, widths, *key)
        return memo[key]

    return sign


def _sign_changes(sign, points, gains) -> list:
    """The roots proven by the signs at strictly increasing dyadic points (num, shift).

    A point that signs 0 is an exact root lo == hi (_UNSIGNED values), and
    neighbours with nonzero values of opposite signs bracket an odd number
    of roots.  Each entry is ((lo, hi, shift), (value at lo, value at hi),
    the bits gains[lo] of a window that starts at lo, else 0), in order;
    their roots are distinct, so as many entries as roots put one simple
    root in each.
    """
    values = [sign(num, shift) for num, shift in points]
    found = []
    # the last point pairs with a sentinel value 0, which brackets nothing
    for p, q, u, w in zip(points, points[1:] + [(0, 0)], values, values[1:] + [(0, 0)]):
        if u[0] == 0:
            found.append((_aligned(p, p), _UNSIGNED, 0))
        elif w[0] and (u[0] > 0) != (w[0] > 0):
            found.append((_aligned(p, q), (u, w), gains.get(p, 0)))
    return found


def _seeded_brackets(sign, estimates, fujiwara: int):
    """One bracket per root from the signs at 0, the separators, the windows and 2^F.

    The zero estimates must be finite and strictly increasing, and the
    separators, the exact midpoints of consecutive ones by integer shifts
    alone, must lie in (0, 2^F).  A root's window joins the points when
    it lies strictly inside its gap between them, and carries the bits it
    gains over that gap (_window_gain).  Returns _sign_changes over the
    points when it proves n roots, else None.
    """
    if None in estimates or not all(map(_below, estimates, estimates[1:])):
        return None
    midpoints = ((a + b, t + 1) for a, b, t in map(_aligned, estimates, estimates[1:]))
    bounds = [(0, 0), *midpoints, (1 << fujiwara, 0)]
    if not all(map(_below, bounds, bounds[1:])):
        return None
    points, gains = [bounds[0]], {}
    for window, lo, hi in zip(map(_window, estimates), bounds, bounds[1:]):
        if _below(lo, window[0]) and _below(window[1], hi):
            gains[window[0]] = _window_gain(lo, hi)
            points.extend(window)
        points.append(hi)
    brackets = _sign_changes(sign, points, gains)
    return brackets if len(brackets) == len(estimates) else None


def _descartes_brackets(poly: ExactPolynomial, sign, estimates, fujiwara: int):
    """One bracket per root by Descartes bisection, in order, with its end values.

    Returns what _seeded_brackets returns, an exact root lo == hi with
    _UNSIGNED values, or raises IsolationFailure unless there are degree
    many.  The segments are swept left to right and each one's cells come
    in order (_isolate01), so an exact root comes before a bracket that
    starts at it.  Each bracket's ends are signed; when neither is a root
    and the root's window lies strictly inside, _sign_changes over the
    ends and the window gives the root's bracket, with the bits it gains.
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
    found = []
    for (lo, hi, s), window in zip(brackets, map(_window, estimates)):
        ends = _UNSIGNED if lo == hi else (sign(lo, s), sign(hi, s))
        points = [(lo, s), *(window or ()), (hi, s)]
        if ends[0][0] and ends[1][0] and window and all(map(_below, points, points[1:])):
            found += _sign_changes(sign, points, {window[0]: _window_gain((lo, s), (hi, s))})
        else:
            found.append(((lo, hi, s), ends, 0))
    return found


def _exact_root(num: int, shift: int) -> ZeroEnclosure:
    x = Fraction(num, 1 << shift)
    return ZeroEnclosure(x, x)


def _refine(poly: ExactPolynomial, widths: dict, bracket, ends, gained, tol) -> ZeroEnclosure:
    """Shrink a bracket (lo, hi, shift) around one simple root below tol (QIR).

    The bracket's ends are lo / 2^shift and hi / 2^shift, with the
    certified values (v, g) there in `ends`; lo == hi is an exact root,
    returned as it is.

    Quadratic interval refinement: the bracket is cut into N = 2^m
    equal dyadic cells, a secant through the values at the bracket's
    ends picks the cell the root should be in, and the signs at that
    cell's two ends keep it or reject it (a bisection step, m halved).  A
    secant through the ends of a cell 2^-b as wide as the starting
    bracket is accurate only to about 2^-b of that cell, so after a kept
    cell m doubles but is capped at the bits b gained so far, minus one.
    A hit window brings the bits `gained` over its gap (else 0), and m
    starts at max(2, min(4, gained - 1)), as after one kept cell of 4.

    Every sign is certified (_value); the values only approximate, so
    the secant may pick another cell than the exact values would, which
    costs evaluations, never a certificate.  The value at each end is
    reused.  `widths` is this root's own copy of the per-binade widths, so
    the bracket sequence does not depend on tol: tol only says where it
    stops, and a smaller tol refines the same brackets further.  A
    bracket is also refined until hi <= 2 lo, so the enclosure of a
    positive root below tol has lo > 0 and fixes the root within a
    factor of 2.

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
    m = max(2, min(4, gained - 1))
    tol_num, tol_den = tol.numerator, tol.denominator
    while v_lo == 0 or v_hi == 0 or hi_n > 2 * lo_n or (hi_n - lo_n) * tol_den > tol_num << s:
        if v_lo and v_hi:
            cell = hi_n - lo_n
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

    `hints`, such as asymptotics.zero_hints, are n increasing zero
    estimates e for a degree-n polynomial.  The signs at 0, at the exact
    midpoints of consecutive estimates, at the window ends e -+ 2^-44
    inside their gaps and at the root bound prove the roots when they show
    n of them (_seeded_brackets); otherwise, or without hints, Descartes
    bisection does, and signs the windows inside its brackets.  A window
    that holds its root, as most estimates of rescaled_zeros do, is its
    bracket, and one that misses costs two signs.  A window that is not
    finite or not inside its gap or bracket is ignored, and no hint
    decides anything.  Raises DomainError
    when tol is not a positive finite rational or when the hints do not
    have shape (n,), NotSquareFree when the polynomial shares a factor
    with its derivative, IsolationFailure when the positive-root count
    differs from the degree (both contradict the expected
    simple-positive-root structure and must stop the caller, never be
    absorbed silently).
    """
    try:
        tol = Fraction(tol)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"tol must be a finite rational, got {tol!r}") from exc
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    n = poly.degree
    hints = np.full(n, np.nan) if hints is None else np.asarray(hints, dtype=float)
    if hints.shape != (n,):
        raise DomainError(f"need {n} hints for degree {n}, got shape {hints.shape}")
    estimates = [_dyadic(x) for x in hints]
    if n == 0:
        return []
    a = poly.integer_form[0]
    if a[0] == 0:
        raise IsolationFailure("zero constant term: x = 0 is a root, not positive")
    fujiwara = _fujiwara_exponent(a)
    widths: dict[int, int] = {}
    sign = _signer(poly, widths)
    brackets = _seeded_brackets(sign, estimates, fujiwara)
    if not brackets:
        if not _square_free(a):
            raise NotSquareFree("gcd with the derivative is nonconstant")
        brackets = _descartes_brackets(poly, sign, estimates, fujiwara)
    return [_refine(poly, dict(widths), *entry, tol) for entry in brackets]


# ---------------------------------------------------------------------------
# measures built from the zeros

def _predicted_zeros(params: ModelParams, estimates) -> np.ndarray:
    """The n zero estimates polished by Newton passes, as a new array.

    Each pass runs the recurrence of poly.recurrence_coefficients for
    u_k = P_k(n^r x) / n^(r k),

        u_(k+1) = (x - beta_(k,0)) u_k - sum_(j=1..r) beta_(k,j) u_(k-j),

    with beta_(k,j) = b_(k,j) / n^(r (j+1)) rounded to doubles, and its
    derivative in x, in doubles, at the n estimates at once, and moves
    each estimate by u_n / u_n'.  Only the last r + 1 rows are kept, in a
    circular buffer; every 16 steps each point's rows are scaled by a
    power of two, so they stay in range and the ratio is unchanged.  The
    sum over j is a product by a column and a sum along the rows in row
    order, not a BLAS call, whose kernel and rounding depend on the
    processor: every operation is one correctly rounded ufunc, so the
    passes return the same doubles on every machine, and so do the sign
    counts of the refinement that follows them.  A step that is
    not finite or leaves its estimate's gap, between the double midpoints
    of the estimates given and 0 and +inf at the ends, is rejected.  The
    passes decide nothing: the certificate signs whatever they return.
    """
    x = np.array(estimates, dtype=float)
    n, r = params.n, params.r
    if n == 0:
        return x
    rows = r + 1
    powers = [n ** (r * (j + 1)) for j in range(rows)]
    beta = np.zeros((n, rows, 1))  # step k's coefficients, on the buffer rows they meet
    for k, row in enumerate(recurrence_coefficients(params)):
        for j, b in enumerate(row):
            beta[k, (k - j) % rows] = b / powers[j]
    # row k % rows holds u_k, then u_k', at the n points
    buf = np.empty((rows, 2 * n))
    terms, t = np.empty_like(buf), np.empty(2 * n)
    full, values, slopes = list(buf), list(buf[:, :n]), list(buf[:, n:])
    with np.errstate(all="ignore"):
        mid = (x[:-1] + x[1:]) / 2
        lo, hi = np.append(0.0, mid), np.append(mid, np.inf)
        for _ in range(_NEWTON_PASSES):
            buf.fill(0.0)
            values[0].fill(1.0)
            both = np.concatenate((x, x))
            for k in range(n):
                c, d = k % rows, (k + 1) % rows
                np.multiply(beta[k], buf, out=terms)
                np.add.reduce(terms, axis=0, out=t)
                np.multiply(full[c], both, out=full[d])
                np.subtract(full[d], t, out=full[d])
                np.add(slopes[d], values[c], out=slopes[d])
                if k % 16 == 15:
                    scale = np.ldexp(1.0, -np.frexp(np.abs(buf[:, :n]).max(axis=0))[1])
                    buf *= np.concatenate((scale, scale))
            u, du = values[n % rows], slopes[n % rows]
            moved = x - u / du
            x = np.where(np.isfinite(moved) & (lo < moved) & (moved < hi), moved, x)
    return x


def rescaled_zeros(params: ModelParams, tol=DEFAULT_TOL) -> list[ZeroEnclosure]:
    """Enclosures of the zeros of F_n(n^r x).

    The hints are the zero estimates of zero_hints polished by
    _predicted_zeros, so that most roots take only the two signs of
    their window.
    """
    rescaled = rescale_arg(build_f(params), params)
    return isolate_zeros(rescaled, tol, hints=_predicted_zeros(params, zero_hints(params)))


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
