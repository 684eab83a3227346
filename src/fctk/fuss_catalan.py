"""The Fuss-Catalan distribution of order r.

Supported on (0, (r+1)^(r+1)/r^r) with n-th moment binom(rn+n, n)/(rn+1);
order 1 is the Marchenko-Pastur law.  Everything routes through the angle
coordinate of fctk.geometry, where the density and distribution function
have elementary closed forms:

    density(rho(phi)) = sin(phi)^2 sin(r phi)^(r-1) / (pi sin((r+1)phi)^r)
    cdf(rho(phi))     = 1 - f(phi)/pi

The Stieltjes transform F(z) satisfies w^(r+1) - z w + z = 0 for
w = z F(z).  Off the cut, w is the one root in the domain
D = {|arg w| < pi/(r+1), |w| < a(|arg w|)} bounded by the saddle curve
a(phi) e^{+-i phi} (Mlotkowski 2010; Penson & Zyczkowski 2011).  A root is
in or out of D when it clears the boundary by 64 times its rounding error;
near the cut two roots lie within that margin, at a e^{+i phi} and
a e^{-i phi}, and the Herglotz sign Im F Im z < 0 picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry, rng
from .errors import BranchAmbiguity, DomainError, QuadratureFailure, as_index
from .geometry import PhiCoordinate, x_star

_QUAD_REL_TARGET = 1e-12
# the relative error of a polished root stayed below 2.2 unit roundoffs times
# (|w|^(r+1) + |z w| + |z|) / |w f'(w)| over 11 000 roots, r <= 5, with z near
# the cut, near 0 (down to 1e-300) and x_star, and out to |z| = 1e100
_MARGIN = 64 * 2.0**-52
# nodes P of stieltjes_moments; its docstring bounds the aliasing at P = 32
_MOMENT_NODES = 32


def _quad(func, lo, hi):
    # imported on first use: it costs about 0.4 s and 50 MB per process
    from scipy.integrate import quad

    value, err, info, *tail = quad(
        func, lo, hi, epsabs=0.0, epsrel=_QUAD_REL_TARGET, limit=200, full_output=1
    )
    if tail:
        raise QuadratureFailure(
            f"quadrature flagged: {tail[0]} (achieved error estimate {err})"
        )
    if err > 1e3 * _QUAD_REL_TARGET * max(abs(value), 1e-300):
        raise QuadratureFailure(f"error estimate {err} too large for value {value}")
    return value


@dataclass(frozen=True)
class FussCatalanDist:
    """Order-r Fuss-Catalan distribution."""

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise DomainError(f"order r must be a positive integer, got {self.r!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, float(x_star(self.r)))

    # -- density and distribution function ---------------------------------

    def density_phi(self, c: PhiCoordinate) -> float:
        """Density at x = rho(phi) in the closed trigonometric form."""
        if c.r != self.r:
            raise DomainError(f"coordinate has r={c.r}, distribution has r={self.r}")
        r, phi = self.r, c.phi
        s1, sr, sr1 = math.sin(phi), math.sin(r * phi), math.sin((r + 1) * phi)
        return s1 * s1 * sr ** (r - 1) / (math.pi * sr1**r)

    def density_x(self, x: float) -> float:
        """Density at x; 0 outside the open support by convention.

        Raises DomainError at nan, and where no double angle puts
        rho(phi) within 1e-8 x of x: near the hard edge x -> 0 the angle
        pins to pi/(r+1) and the closed form would return a wrong number.
        """
        if math.isnan(x):
            raise DomainError("density of nan")
        if not (0.0 < x < self.support[1]):
            return 0.0
        c = geometry.rho_inv(self.r, x)
        if abs(geometry.rho_at(self.r, c.phi) - x) > 1e-8 * x:
            raise DomainError(f"x={x!r} lies too close to 0 to resolve its angle")
        return self.density_phi(c)

    def cdf(self, x):
        """P(X <= x) = 1 - f(phi)/pi at x = rho(phi); a float or, for an array, elementwise."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DomainError("cdf of nan")
        r = self.r
        inside = (0.0 < x) & (x < self.support[1])
        out = np.array(x > 0.0, dtype=float)
        phi = geometry.solve_phi(r, geometry._minus_rho_and_slope(r), -x[inside])
        out[inside] = 1.0 - geometry.f_at(r, phi, np) / math.pi
        return out if out.ndim else float(out)

    def quantile(self, p: float) -> float:
        """x with |cdf(x) - p| <= 1e-12, by solve_phi on f in the angle."""
        if not (0.0 < p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {p}")
        r = self.r
        # 1 - p before rounding: exact for a rational p within 1e-16 of 1
        phi = float(geometry.solve_phi(r, geometry._f_and_slope(r), math.pi * float(1 - p)))
        return geometry.rho_at(r, phi)

    # -- moments ------------------------------------------------------------

    def moment_exact(self, n: int) -> Fraction:
        """binom(rn + n, n) / (rn + 1), exactly."""
        n = as_index(n, "moment index")
        if n < 0:
            raise DomainError(f"moment index must be >= 0, got {n}")
        return Fraction(math.comb(self.r * n + n, n), self.r * n + 1)

    def moment_quadrature(self, n: float) -> float:
        """(1/pi) integral of rho(phi)^n f'(phi) over the angle interval, any finite n >= 0."""
        if not 0 <= n < math.inf:
            raise DomainError(f"moment order must be finite and >= 0, got {n}")
        r = self.r
        top = math.pi / (r + 1)

        # QUADPACK evaluates only interior nodes, so phi never reaches an end
        def integrand(phi):
            return geometry.rho_at(r, phi) ** n * geometry.f_deriv_at(r, phi) / math.pi

        return _quad(integrand, 0.0, top)

    # -- sampling -----------------------------------------------------------

    def sample(self, count: int, seed: int) -> np.ndarray:
        """count i.i.d. draws by inverse-CDF; deterministic given seed."""
        count = as_index(count, "count")
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        u = rng.uniforms(seed, count)
        if count == 0:
            return u
        r = self.r
        phi = geometry.solve_phi(r, geometry._f_and_slope(r), np.pi * (1.0 - u))
        return np.asarray(geometry.rho_at(r, phi, np))

    # -- Stieltjes transform --------------------------------------------------

    def _branch_root(self, z: complex) -> complex:
        """The root w = z F(z) of the trinomial in D, tested over its error disc."""
        r = self.r
        top = math.pi / (r + 1)

        def a(t):
            return geometry.saddle_modulus_at(r, t) if t > 0 else (r + 1) / r

        inside, edge = [], []
        for w in geometry.solve_trinomial(r, z):
            mod, theta = abs(w), abs(math.atan2(w.imag, w.real))
            slope = abs((r + 1) * w**r - z) * mod
            err = _MARGIN * (mod ** (r + 1) + abs(z) * mod + abs(z)) / slope if slope else math.inf
            # a decreases in the angle: move |w| and arg w by err toward the boundary
            if theta + err < top and mod * (1 + err) < a(theta + err):
                inside.append(w)
            elif theta - err < top and mod * (1 - err) <= a(theta - err):
                edge.append(w)
        herglotz = [w for w in edge if (w / z).imag * z.imag < 0]
        if len(inside) == 1 or (not inside and len(herglotz) == 1):
            return (inside or herglotz)[0]
        raise BranchAmbiguity(f"neither the margin nor the Herglotz sign decides the root at z={z}")

    def stieltjes(self, z: complex) -> complex:
        """F(z) = w/z off the support, w the root of the trinomial in D."""
        z = complex(z)
        if z.imag == 0.0 and 0.0 <= z.real <= self.support[1]:
            raise DomainError(f"z={z} lies on the support cut [0, {self.support[1]}]")
        return self._branch_root(z) / z

    def stieltjes_moments(self, n_max: int) -> list[float]:
        """Moments m_0..m_n_max read off z F(z) = sum_n m_n z^-n, n_max < 32.

        w_k = z_k F(z_k) is taken in double precision at P = 32 nodes
        (_MOMENT_NODES) z_k = R e^(2 pi i k/P), R = 2 x_star, and one FFT gives
        m_n ~ R^n (1/P) sum_k w_k e^(2 pi i k n/P).  Two errors:

        - aliasing, sum_{q>=1} m_{n+qP} R^-qP: as m_j <= x_star^j, at most
          x_star^n 2^-P / (1 - 2^-P); as m_{j+1}/m_j rises to x_star (the
          moments are log-convex), also at most m_n 2^-P / (1 - 2^-P),
          2.3e-10 relative at P = 32.  The rounding check below caps the
          accuracy at 1e-8 relative, so fewer nodes would break that
          contract and more would buy nothing.
        - rounding: w_k is within _MARGIN (|w|^(r+1) + |z w| + |z|) / |f'(w)|
          of its exact value (the disc `_branch_root` tests; rounding z_k
          moves w_k well inside it), the FFT at most P 2^-53 max|w_k|, and
          R^n multiplies both.  Against m_n this grows as 2^n; once it
          exceeds 1e-8 of some m_n (from n = 10 to 12 for r <= 5),
          DomainError is raised.
        """
        points = _MOMENT_NODES
        n_max = as_index(n_max, "n_max")
        if not 0 <= n_max < points:
            raise DomainError(f"need 0 <= n_max < {points}, got {n_max}")
        r, radius = self.r, 2.0 * float(x_star(self.r))
        z = radius * np.exp(2j * np.pi * np.arange(points) / points)
        w = np.array([self._branch_root(complex(zk)) for zk in z])
        scale = radius ** np.arange(n_max + 1)
        moments = np.fft.ifft(w)[: n_max + 1].real * scale
        mod = np.abs(w)
        disc = _MARGIN * (mod ** (r + 1) + radius * mod + radius) / np.abs((r + 1) * w**r - z)
        rounding = scale * (disc.max() + points * 2.0**-53 * mod.max())
        too_large = rounding > 1e-8 * np.abs(moments)
        if too_large.any():
            n = int(np.argmax(too_large))
            raise DomainError(
                f"moment {n} would carry a rounding error up to {rounding[n]:.1e} "
                f"against {moments[n]:.6g}; ask for fewer moments"
            )
        return moments.tolist()


def identity_check(r: int, n: int) -> tuple[float, Fraction]:
    """Integral of sin(pi t)^((r+1)n) / (sin(pi t/(r+1))^n sin(r pi t/(r+1))^(rn))
    over (0, 1) against its exact value binom((r+1)n, n).

    The integrand is rho(pi t/(r+1))^n, taken as one power of rho so that
    no sine power underflows near t = 0; it rises to x_star^n there, and
    DomainError is raised when that leaves the double range.
    """
    r, n = as_index(r, "r"), as_index(n, "n")
    if r < 1 or n < 0:
        raise DomainError(f"need r >= 1 and n >= 0, got r={r}, n={n}")
    try:
        float(x_star(r)) ** n  # the integrand's limit at t = 0
    except OverflowError:
        raise DomainError(f"x_star({r})^{n} exceeds the double range") from None

    # QUADPACK evaluates only interior nodes, so t never reaches an end
    def integrand(t):
        return geometry.rho_at(r, math.pi * t / (r + 1)) ** n

    lhs = _quad(integrand, 0.0, 1.0)
    rhs = Fraction(math.comb((r + 1) * n, n))
    return lhs, rhs
