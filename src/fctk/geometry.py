"""Trigonometric coordinates of the oscillatory region.

The angle phi in (0, pi/(r+1)) parameterizes the support of the limiting
zero distribution through the strictly decreasing bijection

    rho(phi) = sin((r+1)phi)^(r+1) / (sin(phi) sin(r phi)^r),

while the strictly increasing bijection

    f(phi) = (r+1)phi - r (sin((r+1)phi)/sin(r phi)) sin(phi)

carries the oscillation phase.  The conjugate saddle points of the
contour representation sit at a(phi) e^{+-i phi} with modulus
a(phi) = sin((r+1)phi)/sin(r phi) and solve the trinomial
w^(r+1) - x w + x = 0 at x = rho(phi).

Each formula is spelled once, over the sines and cosines it reads
(s1 = sin phi, sr = sin r phi, sr1 = sin (r+1) phi, cr1 = cos (r+1) phi),
so a caller that needs several of them at one angle evaluates each
value once.  The public *_at forms take a backend module (math, mpmath,
or numpy), evaluate the values they read and call those spellings, so
the same expressions serve double-precision scalars, arbitrary
precision, and vectorized grids.  The slopes f' and rho' are spelled
the same way, and every inversion in the package (x -> phi, the
quantiles of the distribution, the extrema of the cosine approximant)
goes through the one vectorized safeguarded-Newton inverter solve_phi,
which reads a value and a slope at each angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, DomainError

_TRINOMIAL_RESIDUAL_REL = 1e-10


@dataclass(frozen=True)
class PhiCoordinate:
    """Angle phi strictly inside (0, pi/(r+1)) for a given order r."""

    r: int
    phi: float

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise DomainError(f"r must be a positive integer, got {self.r!r}")
        if not (0.0 < self.phi < math.pi / (self.r + 1)):
            raise DomainError(
                f"phi must lie strictly in (0, pi/{self.r + 1}), got {self.phi!r}"
            )


def x_star(r: int) -> Fraction:
    """Right edge (r+1)^(r+1) / r^r of the support, as an exact rational."""
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return Fraction((r + 1) ** (r + 1), r**r)


# ---------------------------------------------------------------------------
# the formulas over sine and cosine values already computed

def _rho(r, s1, sr, sr1):
    # as ratios of the sines, which stay finite where their product underflows
    # as phi -> 0
    return (sr1 / s1) * (sr1 / sr) ** r


def _saddle_modulus(sr, sr1):
    return sr1 / sr


def _f(r, phi, s1, sr, sr1):
    return (r + 1) * phi - r * _saddle_modulus(sr, sr1) * s1


def _f_deriv(r, s1, sr, sr1, cr1):
    # |d|^2 of _d_factor as a sum of squares, (r s1/sr - cr1)^2 + sr1^2: the
    # expanded form r^2 s1^2 + (r+1) sr^2 - r sr sin((r+2)phi) over sr^2
    # cancels to zero in doubles as phi -> 0
    u = r * s1 / sr - cr1
    return u * u + sr1 * sr1


def _rho_decay(r, s1, sr, sr1, cr1):
    # -rho'/rho = f' sr/(s1 sr1); f'/sr1 first, so nothing overflows as phi -> 0
    return _f_deriv(r, s1, sr, sr1, cr1) / sr1 * (sr / s1)


def _d_factor(r, s1, sr, sr1, cr1):
    """Real and imaginary parts of 1 - (r sin(phi)/sin(r phi)) e^{i(r+1)phi}."""
    return 1 - r * s1 * cr1 / sr, -r * s1 * sr1 / sr


def _hess_quartic(r, s1, sr, sr1, cr1):
    re, im = _d_factor(r, s1, sr, sr1, cr1)
    return re * re + im * im


def _g_shift(r, nu, phi, s1, sr, sr1, cr1, lib):
    re, im = _d_factor(r, s1, sr, sr1, cr1)
    atan2 = getattr(lib, "atan2", None) or lib.arctan2
    arg = atan2(im, re)
    return -(r * phi / 2 + sum(nu) * phi) - arg / 2


def _g_deriv(r, nu, s1, sr, sr1, cr1, sr2):
    """g'(phi) = -(r/2 + sum(nu)) - Im(d'/d)/2 for d = 1 - u e^{i(r+1)phi}, u = r s1/sr.

    Im(d'/d) = -(u' sr1 + (r+1) u (cr1 - u)) / |d|^2 with
    u' = r ((r+1) cos(phi) sr - r sr1) / sr^2, and cos(phi) sr1 + s1 cr1 is
    sr2 = sin((r+2)phi), so the bracket reads the one further sine sr2.
    """
    q1, q, q2 = s1 / sr, sr1 / sr, sr2 / sr
    bracket = (r + 1) * q2 - r * q * q - r * (r + 1) * q1 * q1
    return -(r / 2 + sum(nu)) + r * bracket / (2 * _f_deriv(r, s1, sr, sr1, cr1))


# ---------------------------------------------------------------------------
# backend-generic forms (lib is math, mpmath, or numpy)

def rho_at(r, phi, lib=math):
    """x = rho(phi), strictly decreasing from x_star(r) to 0."""
    return _rho(r, lib.sin(phi), lib.sin(r * phi), lib.sin((r + 1) * phi))


def saddle_modulus_at(r, phi, lib=math):
    """Modulus a(phi) of the conjugate saddles a(phi) e^{+-i phi}.

    Both saddles solve w^(r+1) - x w + x = 0 at x = rho(phi).
    """
    return _saddle_modulus(lib.sin(r * phi), lib.sin((r + 1) * phi))


def f_at(r, phi, lib=math):
    """Oscillation phase f(phi), strictly increasing from 0 to pi."""
    return _f(r, phi, lib.sin(phi), lib.sin(r * phi), lib.sin((r + 1) * phi))


def f_deriv_at(r, phi, lib=math):
    """f'(phi) = |1 - (r sin(phi)/sin(r phi)) e^{i(r+1)phi}|^2, as _f_deriv spells it."""
    return _f_deriv(r, *_d_sines(r, phi, lib))


def rho_deriv_at(r, phi, lib=math):
    """rho'(phi) = -rho f' sin(r phi)/(sin(phi) sin((r+1)phi)), through _rho_decay."""
    s1, sr, sr1, cr1 = _d_sines(r, phi, lib)
    return -_rho(r, s1, sr, sr1) * _rho_decay(r, s1, sr, sr1, cr1)


def _d_sines(r, phi, lib):
    """The four values the d-factor reads: s1, sr, sr1, cr1."""
    return lib.sin(phi), lib.sin(r * phi), lib.sin((r + 1) * phi), lib.cos((r + 1) * phi)


# ---------------------------------------------------------------------------
# inversion

# a value read from a few rounded terms of the target's size errs by a few of
# its ulps, so steps shorter than 4 ulps of the target over the slope are noise
_NOISE_ULPS = 4
# a Newton step that fails the halving rule within this many noise lengths
# of the point starts the end game instead of a bisection of the bracket
_END_GAME_NOISES = 16
# past this many evaluations only halvings of the bit patterns remain, and
# those close any bracket of positive doubles within 63 more
_NEWTON_EVALUATIONS = 64
# at least one ulp of any normal double x, as x * _ULP
_ULP = 2.0**-52


def _bit_midpoint(lo, hi):
    """The double halfway between lo and hi in bit patterns: the arithmetic
    midpoint within a binade, the geometric one across many."""
    return ((lo.view(np.int64) + hi.view(np.int64)) // 2).view(np.float64)


def solve_phi(r: int, increasing, targets) -> np.ndarray:
    """Angles in (0, pi/(r+1)) where `increasing` meets `targets`, elementwise.

    `increasing` maps an array of angles to a pair of arrays: the values
    of a function that increases on the interval (a decreasing form is
    inverted through its negation) and its slopes.  Each target keeps a
    bracket lo < hi with increasing(lo) < target <= increasing(hi),
    starting at the smallest positive double and the largest double
    below pi/(r+1), and each evaluation moves one end of it.  The points
    evaluated are

    - first, the bracket's midpoint;
    - then safeguarded Newton steps from the last point (rtsafe of
      Numerical Recipes), taken where they land strictly inside the
      bracket and are at most half the step before the last one;
    - the end game, once a Newton step is shorter than the noise of the
      value (_NOISE_ULPS ulps of the target over the slope, and at least
      one ulp of the point), or fails the halving rule within
      _END_GAME_NOISES such lengths: steps of at least that length
      toward the target, doubling while they last, so that the bracket
      closes from the far side after one or two of them, also where the
      value is flat or noisy over many ulps;
    - otherwise, and after _NEWTON_EVALUATIONS evaluations, the
      bracket's midpoint in bit patterns, so that no target takes more
      than 127 evaluations.

    Only targets whose bracket is still open are evaluated.  A bracket
    closes when lo and hi are adjacent doubles, and the result is
    0.5 (lo + hi), which rounds to lo or hi: every result lies strictly
    inside the open interval, increasing crosses the target between it
    and a neighbouring double, and no result depends on the other
    targets.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.empty(targets.size)
    t = targets.ravel()
    noise = _NOISE_ULPS * np.spacing(np.abs(t))
    lo = np.full_like(t, 5e-324)
    hi = np.full_like(t, np.nextafter(math.pi / (r + 1), 0.0))
    x = 0.5 * (lo + hi)
    half_last = half_before = 0.5 * (hi - lo)  # halves of the last two steps
    reach = np.ones_like(t)
    index = np.arange(t.size)
    evaluations = 0
    # a zero slope gives an infinite step, which no bracket accepts
    with np.errstate(divide="ignore", invalid="ignore"):
        while index.size:
            value, slope = increasing(x)
            evaluations += 1
            below = value < t
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            closed = hi.view(np.int64) - lo.view(np.int64) == 1
            if closed.any():
                out[index[closed]] = 0.5 * (lo[closed] + hi[closed])
                keep = ~closed
                index, t, noise, lo, hi, x = (a[keep] for a in (index, t, noise, lo, hi, x))
                value, slope = value[keep], slope[keep]
                half_last, half_before, reach = half_last[keep], half_before[keep], reach[keep]
            # -(value - t) is -0.0 where value == t, which is a valid hi:
            # the sign of the step then still points into the bracket
            step = -(value - t) / slope
            size = np.abs(step)
            least = reach * np.maximum(x * _ULP, noise / np.abs(slope))
            halving = size <= half_before
            short = (size <= least) | (~halving & (size <= _END_GAME_NOISES * least))
            nxt = x + np.copysign(np.maximum(size, least), step)
            newton = (lo < nxt) & (nxt < hi) & (short | halving)
            if evaluations >= _NEWTON_EVALUATIONS:
                newton[:] = False
            if not newton.all():
                nxt = np.where(newton, nxt, _bit_midpoint(lo, hi))
            reach = np.where(short & newton, 2 * reach, 1.0)
            half_before, half_last = half_last, 0.5 * np.abs(nxt - x)
            x = nxt
    return out.reshape(targets.shape)


def rho_inv(r: int, x: float) -> PhiCoordinate:
    """Invert rho by solve_phi; |rho(phi) - x| <= 1e-14 max(1, x)."""
    xs = float(x_star(r))
    if not (0.0 < x < xs):
        raise DomainError(f"x must lie in (0, {xs}) for r={r}, got {x!r}")
    phi = float(solve_phi(r, _minus_rho_and_slope(r), -x))
    if abs(rho_at(r, phi) - x) > 1e-14 * max(1.0, x):
        raise ConvergenceFailure(f"rho inversion stalled at phi={phi!r}")
    return PhiCoordinate(r, phi)


def _minus_rho_and_slope(r: int):
    """-rho and its slope on an array of angles: the increasing form solve_phi inverts for x."""

    def increasing(phi):
        s1, sr, sr1, cr1 = _d_sines(r, phi, np)
        rho = _rho(r, s1, sr, sr1)
        return -rho, rho * _rho_decay(r, s1, sr, sr1, cr1)

    return increasing


def _f_and_slope(r: int):
    """f and its slope on an array of angles: the increasing form solve_phi inverts for p."""

    def increasing(phi):
        s1, sr, sr1, cr1 = _d_sines(r, phi, np)
        return _f(r, phi, s1, sr, sr1), _f_deriv(r, s1, sr, sr1, cr1)

    return increasing


def solve_trinomial(r: int, x: complex) -> list[complex]:
    """All r+1 roots of w^(r+1) - x w + x = 0.

    Companion-matrix eigenvalues followed by two Newton polish steps per
    root; robust up to the double root at the real edge x = x_star(r).
    Residuals are relative to |w|^(r+1) + |x w| + |x|, finite for |x| <= 1e100.
    """
    x = complex(x)
    if not 0 < abs(x) <= 1e100:
        raise DomainError(f"x must satisfy 0 < |x| <= 1e100, got {x}")
    coeffs = [1.0] + [0.0] * (r - 1) + [-x, x]
    roots = [complex(w) for w in np.roots(coeffs)]
    polished = []
    for w in roots:
        for _ in range(2):
            fw = w ** (r + 1) - x * w + x
            dfw = (r + 1) * w**r - x
            if abs(dfw) > 1e-8 * ((r + 1) * abs(w) ** r + abs(x)):
                w = w - fw / dfw
        polished.append(w)
    size = [abs(w) ** (r + 1) + abs(x * w) + abs(x) for w in polished]
    worst = max(abs(w ** (r + 1) - x * w + x) / s for w, s in zip(polished, size))
    if worst > _TRINOMIAL_RESIDUAL_REL:
        raise ConvergenceFailure(
            f"trinomial residual {worst} above tolerance after polish "
            f"(r={r}, x={x}, 2 Newton steps per root)"
        )
    return polished
