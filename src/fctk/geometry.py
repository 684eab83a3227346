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
precision, and vectorized grids.  Every inversion in the package
(x -> phi, the quantiles of the distribution, the extrema of the cosine
approximant) goes through the one vectorized bisection solve_phi.
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
    return sr1 ** (r + 1) / (s1 * sr**r)


def _saddle_modulus(sr, sr1):
    return sr1 / sr


def _f(r, phi, s1, sr, sr1):
    return (r + 1) * phi - r * _saddle_modulus(sr, sr1) * s1


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
    s1, sr = lib.sin(phi), lib.sin(r * phi)
    return (r * r * s1 * s1 + (r + 1) * sr * sr - r * sr * lib.sin((r + 2) * phi)) / (sr * sr)


def rho_deriv_at(r, phi, lib=math):
    s1, sr, sr1 = lib.sin(phi), lib.sin(r * phi), lib.sin((r + 1) * phi)
    # exact rearrangement of r^2 s1^2 - 2 r s1 sr cos((r+1)phi) + sr^2 as a
    # sum of squares; the expanded form cancels to zero in doubles near 0
    half = r * s1 - sr * lib.cos((r + 1) * phi)
    num = half * half + sr * sr * sr1 * sr1
    return -num * sr1**r / (s1 * s1 * sr ** (r + 1))


def _d_sines(r, phi, lib):
    """The four values the d-factor reads: s1, sr, sr1, cr1."""
    return lib.sin(phi), lib.sin(r * phi), lib.sin((r + 1) * phi), lib.cos((r + 1) * phi)


def hess_quartic_at(r, phi, lib=math):
    """Squared modulus of 1 - (r sin(phi)/sin(r phi)) e^{i(r+1)phi}.

    This is the bracket raised to the -1/4 power in the oscillatory
    amplitude; it stays strictly positive on the open interval.
    """
    return _hess_quartic(r, *_d_sines(r, phi, lib))


def g_shift_at(r, nu, phi, lib=math):
    """Phase shift -(r/2 + sum(nu)) phi - Arg(1 - (r sin phi/sin r phi) e^{i(r+1)phi}) / 2.

    The principal complex argument reproduces the arctan of the same
    ratio while staying continuous when its denominator vanishes.
    """
    return _g_shift(r, nu, phi, *_d_sines(r, phi, lib), lib)


# ---------------------------------------------------------------------------
# inversion

def solve_phi(r: int, increasing, targets) -> np.ndarray:
    """Angles in (0, pi/(r+1)) where `increasing` meets `targets`, elementwise.

    `increasing` maps an array of angles to values and must increase on
    the interval (a decreasing form is inverted through its negation).
    The brackets start at the smallest positive double and the largest
    double below pi/(r+1) and halve until none shrinks, so every result
    lies strictly inside the open interval and does not depend on the
    other targets.
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.full_like(targets, 5e-324)
    hi = np.full_like(targets, np.nextafter(math.pi / (r + 1), 0.0))
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        below = increasing(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


def rho_inv(r: int, x: float) -> PhiCoordinate:
    """Invert rho by bisection; |rho(phi) - x| <= 1e-14 max(1, x)."""
    xs = float(x_star(r))
    if not (0.0 < x < xs):
        raise DomainError(f"x must lie in (0, {xs}) for r={r}, got {x!r}")
    phi = float(solve_phi(r, lambda p: -rho_at(r, p, np), -x))
    if abs(rho_at(r, phi) - x) > 1e-14 * max(1.0, x):
        raise ConvergenceFailure(f"rho inversion stalled at phi={phi!r}")
    return PhiCoordinate(r, phi)


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
